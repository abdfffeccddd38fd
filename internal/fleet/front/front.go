// Package front is the entry point of replicated serving (crowdscope
// serve -replicas N): a round-robin front over N read-only serve
// replicas of one store. It health-checks each
// replica's /readyz, ejects dead ones from rotation, and — because
// every served route is an idempotent GET — retries a failed read on
// the next replica instead of surfacing the failure. The contract the
// failover suite enforces: as long as at least one replica is healthy,
// clients never see a 5xx, no matter which replica dies mid-request.
package front

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"
)

// The probe interval is deliberately short: ejection already happens
// inline on request failures, so the background probe mostly handles
// reinstatement after a replica recovers.
const (
	checkInterval = 500 * time.Millisecond // Run's health-probe period
	checkTimeout  = 2 * time.Second        // bound on one /readyz probe
	// retryAfterSecs is advertised when every replica is down.
	retryAfterSecs = 1
	// maxResponseBytes bounds one buffered replica response.
	maxResponseBytes = 64 << 20
)

// errOversized reports a replica response body over the front's bound.
var errOversized = errors.New("front: replica response too large")

// Options tunes the front.
type Options struct {
	// Client performs replica requests and probes. Default
	// http.DefaultClient.
	Client *http.Client
	// Logf, when set, receives ejection/reinstatement log lines.
	Logf func(format string, args ...any)
}

type replica struct {
	base    string
	healthy atomic.Bool
}

// Front load-balances idempotent reads over serving replicas.
type Front struct {
	replicas []*replica
	opts     Options
	maxBody  int64 // maxResponseBytes; tests lower it
	rr       atomic.Uint64

	retries atomic.Int64
	ejects  atomic.Int64
}

// New builds a front over the replica base URLs (e.g.
// "http://127.0.0.1:8081"). All replicas start in rotation; the first
// failed request or probe ejects them.
func New(targets []string, opts Options) (*Front, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("front: no replicas")
	}
	if opts.Client == nil {
		opts.Client = http.DefaultClient
	}
	f := &Front{opts: opts, maxBody: maxResponseBytes, replicas: make([]*replica, len(targets))}
	for i, base := range targets {
		f.replicas[i] = &replica{base: base}
		f.replicas[i].healthy.Store(true)
	}
	return f, nil
}

// Handler returns the front's HTTP handler.
func (f *Front) Handler() http.Handler { return http.HandlerFunc(f.serveHTTP) }

// Retries reports requests that succeeded only after failing over to
// another replica.
func (f *Front) Retries() int64 { return f.retries.Load() }

// Ejections reports how many times a replica left the rotation.
func (f *Front) Ejections() int64 { return f.ejects.Load() }

func (f *Front) logf(format string, args ...any) {
	if f.opts.Logf != nil {
		f.opts.Logf(format, args...)
	}
}

func (f *Front) serveHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		// Only idempotent reads may be retried across replicas; the
		// serving layer is read-only anyway.
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	// Candidate order: healthy replicas from the round-robin cursor,
	// then — as a last resort — ejected ones, because the probe loop may
	// lag a replica's recovery and trying a dead one only costs one
	// failed dial.
	n := len(f.replicas)
	start := int(f.rr.Add(1)) % n
	order := make([]*replica, 0, n)
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < n; i++ {
			rep := f.replicas[(start+i)%n]
			if rep.healthy.Load() == (pass == 0) {
				order = append(order, rep)
			}
		}
	}
	for i, rep := range order {
		status, header, body, err := f.forward(r, rep)
		if errors.Is(err, errOversized) {
			// The replica answered, so it stays in rotation, and every
			// replica would return the same body, so no retry.
			http.Error(w, fmt.Sprintf("replica response exceeds %d bytes", f.maxBody), http.StatusBadGateway)
			return
		}
		if err != nil || status >= http.StatusInternalServerError {
			f.eject(rep, status, err)
			continue
		}
		if i > 0 {
			f.retries.Add(1)
		}
		h := w.Header()
		for k, vs := range header {
			h[k] = vs
		}
		w.WriteHeader(status)
		if r.Method != http.MethodHead {
			if _, err := w.Write(body); err != nil {
				// The *client* hung up; the replica answered fine.
				f.logf("front: write to client: %v", err)
			}
		}
		return
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", retryAfterSecs))
	http.Error(w, "no healthy replica", http.StatusServiceUnavailable)
}

// forward proxies one request to one replica, buffering the whole
// response before anything reaches the client. Buffering is what makes
// mid-request replica death retryable: a body truncated by a kill
// surfaces here as a read error and the next replica gets the request,
// while the client connection has seen zero bytes. A body over maxBody
// is errOversized, never a truncated success.
func (f *Front) forward(r *http.Request, rep *replica) (int, http.Header, []byte, error) {
	req, err := http.NewRequestWithContext(r.Context(), r.Method, rep.base+r.URL.RequestURI(), nil)
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Accept", r.Header.Get("Accept"))
	resp, err := f.opts.Client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, f.maxBody+1))
	if err != nil {
		return 0, nil, nil, err
	}
	if int64(len(body)) > f.maxBody {
		return 0, nil, nil, errOversized
	}
	return resp.StatusCode, resp.Header, body, nil
}

func (f *Front) eject(rep *replica, status int, err error) {
	if rep.healthy.CompareAndSwap(true, false) {
		f.ejects.Add(1)
		f.logf("front: ejected %s (status=%d err=%v)", rep.base, status, err)
	}
}

// checkNow probes every replica's /readyz once and updates the
// rotation: 200 reinstates, anything else (including probe errors)
// ejects. Run calls it on every tick; tests call it to drive probes
// deterministically.
func (f *Front) checkNow(ctx context.Context) {
	for _, rep := range f.replicas {
		func() {
			pctx, cancel := context.WithTimeout(ctx, checkTimeout)
			defer cancel()
			req, err := http.NewRequestWithContext(pctx, http.MethodGet, rep.base+"/readyz", nil)
			if err != nil {
				f.eject(rep, 0, err)
				return
			}
			resp, err := f.opts.Client.Do(req)
			if err != nil {
				f.eject(rep, 0, err)
				return
			}
			defer resp.Body.Close()
			if _, err := io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20)); err != nil {
				f.eject(rep, resp.StatusCode, err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				f.eject(rep, resp.StatusCode, nil)
				return
			}
			if rep.healthy.CompareAndSwap(false, true) {
				f.logf("front: reinstated %s", rep.base)
			}
		}()
	}
}

// Run drives the health-probe loop until ctx is done.
func (f *Front) Run(ctx context.Context) {
	ticker := time.NewTicker(checkInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			f.checkNow(ctx)
		}
	}
}
