// Package crawler implements the paper's data-collection pipeline: a
// high-throughput parallel crawler that discovers the AngelList graph by
// breadth-first search from the currently-raising listing, then augments
// every discovered startup with CrunchBase, Facebook and Twitter data.
//
// The crawler only learns about the world through the HTTP APIs — it
// never touches generator state — and it copes with the same operational
// obstacles the paper describes: per-token Twitter rate windows (defeated
// by rotating tokens, as the paper distributes its crawl across machines
// with different tokens), transient server errors (exponential backoff
// with jitter), truncated or malformed response bodies (re-fetched), and
// paginated listings.
package crawler

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"crowdscope/internal/apiserver"
	"crowdscope/internal/ecosystem"
)

// ErrNotFound marks 404 responses; callers treat these as absent data,
// not failures.
var ErrNotFound = errors.New("crawler: not found")

// Client is a rate-limit-aware, retrying HTTP client for the simulated
// services. It is safe for concurrent use.
type Client struct {
	// BaseURL of the API server, e.g. http://127.0.0.1:8080.
	BaseURL string
	// Tokens to rotate across. At least one is required.
	Tokens []string
	// HTTP client; defaults to http.DefaultClient.
	HTTP *http.Client
	// MaxRetries bounds retry attempts for transient failures (5xx,
	// network errors, malformed bodies). Default 5.
	MaxRetries int
	// BaseBackoff is the initial retry delay, doubled per attempt with
	// jitter. Default 10ms.
	BaseBackoff time.Duration
	// Sleep, when non-nil, replaces the real wait between retries and
	// when every token is rate limited; tests inject fakes. The default
	// (nil) sleeps on a timer that respects context cancellation.
	Sleep func(time.Duration)
	// Clock supplies the current time for HTTP-date Retry-After math;
	// nil means time.Now. Tests inject fakes so date headers resolve to
	// deterministic waits.
	Clock apiserver.Clock

	tokenCursor atomic.Uint64

	statsMu sync.Mutex
	stats   ClientStats

	jitterMu sync.Mutex
	jitter   *rand.Rand
}

// ClientStats counts the client's HTTP activity.
type ClientStats struct {
	Requests      int64 // HTTP requests issued
	Retries       int64 // retried transient failures
	BodyRetries   int64 // re-fetches after truncated/malformed 200 bodies
	RateLimitHits int64 // 429 responses observed
	TokenSleeps   int64 // waits because every token was exhausted
}

// NewClient builds a client with defaults filled in.
func NewClient(baseURL string, tokens []string) (*Client, error) {
	if len(tokens) == 0 {
		return nil, errors.New("crawler: at least one access token required")
	}
	return &Client{
		BaseURL:     baseURL,
		Tokens:      tokens,
		HTTP:        http.DefaultClient,
		MaxRetries:  5,
		BaseBackoff: 10 * time.Millisecond,
		jitter:      rand.New(rand.NewSource(1)),
	}, nil
}

// counters returns a snapshot of the client's counters.
func (c *Client) counters() ClientStats {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	return c.stats
}

func (c *Client) bump(f func(*ClientStats)) {
	c.statsMu.Lock()
	f(&c.stats)
	c.statsMu.Unlock()
}

// nextToken rotates through the token list.
func (c *Client) nextToken() string {
	i := c.tokenCursor.Add(1)
	return c.Tokens[int(i)%len(c.Tokens)]
}

func (c *Client) backoff(attempt int) time.Duration {
	d := c.BaseBackoff << attempt
	c.jitterMu.Lock()
	j := time.Duration(c.jitter.Int63n(int64(d)/2 + 1))
	c.jitterMu.Unlock()
	return d + j
}

// sleep waits for d or until ctx is canceled, whichever comes first. A
// custom Sleep fake runs to completion (fakes advance virtual clocks),
// but cancellation is still honored before and after it.
func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if c.Sleep != nil {
		c.Sleep(d)
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// now returns the injected clock's time, defaulting to the wall clock.
func (c *Client) now() time.Time {
	if c.Clock != nil {
		return c.Clock()
	}
	return time.Now()
}

// retryAfterDelay interprets a Retry-After header value as either
// delta-seconds or an HTTP-date (RFC 9110 allows both forms; real APIs
// send both). ok is false when the value is absent, unparseable,
// non-positive, or a date already in the past.
func (c *Client) retryAfterDelay(ra string) (time.Duration, bool) {
	if ra == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(ra); err == nil {
		if secs > 0 {
			return time.Duration(secs) * time.Second, true
		}
		return 0, false
	}
	if when, err := http.ParseTime(ra); err == nil {
		if d := when.Sub(c.now()); d > 0 {
			return d, true
		}
	}
	return 0, false
}

// getJSON fetches path (with query) into out, handling auth, retries and
// token rotation. A 429 rotates to the next token immediately; when all
// tokens are exhausted it sleeps out the window's Retry-After (either
// wire form). Truncated or malformed 200 bodies are re-fetched like
// transient failures. All waits abort promptly on context cancellation;
// a lone crawler legitimately sleeps out whole Twitter rate windows,
// which is the paper's documented crawl reality.
func (c *Client) getJSON(ctx context.Context, path string, query url.Values, out any) error {
	attempt := 0
	rotations := 0
	retryTransient := func(cause error) error {
		if attempt >= c.MaxRetries {
			return cause
		}
		c.bump(func(s *ClientStats) { s.Retries++ })
		if err := c.sleep(ctx, c.backoff(attempt)); err != nil {
			return fmt.Errorf("crawler: %s: %w", path, err)
		}
		attempt++
		return nil
	}
	for {
		token := c.nextToken()
		u := c.BaseURL + path
		if len(query) > 0 {
			u += "?" + query.Encode()
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
		if err != nil {
			return fmt.Errorf("crawler: build request: %w", err)
		}
		req.Header.Set("Authorization", "Bearer "+token)
		c.bump(func(s *ClientStats) { s.Requests++ })
		httpc := c.HTTP
		if httpc == nil {
			httpc = http.DefaultClient
		}
		resp, err := httpc.Do(req)
		if err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return fmt.Errorf("crawler: %s: %w", path, ctxErr)
			}
			if err := retryTransient(fmt.Errorf("crawler: %s: %w", path, err)); err != nil {
				return err
			}
			continue
		}
		body, readErr := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusOK:
			cause := readErr
			if cause == nil {
				if cause = json.Unmarshal(body, out); cause == nil {
					return nil
				}
			}
			// A 200 with an unreadable or undecodable body is a truncated
			// transfer; re-fetch the page like any transient failure.
			c.bump(func(s *ClientStats) { s.BodyRetries++ })
			if err := retryTransient(fmt.Errorf("crawler: bad body for %s: %w", path, cause)); err != nil {
				return err
			}
			continue
		case resp.StatusCode == http.StatusNotFound:
			return fmt.Errorf("%w: %s", ErrNotFound, path)
		case resp.StatusCode == http.StatusTooManyRequests:
			c.bump(func(s *ClientStats) { s.RateLimitHits++ })
			rotations++
			if rotations < len(c.Tokens) {
				continue // try the next token right away
			}
			// Every token exhausted: wait out the window.
			retry := 2 * time.Second
			if d, ok := c.retryAfterDelay(resp.Header.Get("Retry-After")); ok {
				retry = d
			}
			c.bump(func(s *ClientStats) { s.TokenSleeps++ })
			if err := c.sleep(ctx, retry); err != nil {
				return fmt.Errorf("crawler: %s: %w", path, err)
			}
			rotations = 0
			continue
		case resp.StatusCode >= 500:
			if err := retryTransient(fmt.Errorf("crawler: %s: server error %d after %d retries", path, resp.StatusCode, attempt)); err != nil {
				return err
			}
			continue
		default:
			return fmt.Errorf("crawler: %s: unexpected status %d", path, resp.StatusCode)
		}
	}
}

// RaisingStartups pages through the currently-raising listing, the seed
// set of the BFS.
func (c *Client) RaisingStartups(ctx context.Context) ([]string, error) {
	var all []string
	page := 1
	for {
		var resp apiserver.RaisingResponse
		q := url.Values{"page": {strconv.Itoa(page)}}
		if err := c.getJSON(ctx, "/angellist/startups/raising", q, &resp); err != nil {
			return nil, err
		}
		all = append(all, resp.Startups...)
		if page >= resp.LastPage {
			return all, nil
		}
		page++
	}
}

// startup fetches one AngelList startup profile.
func (c *Client) startup(ctx context.Context, id string) (*ecosystem.Startup, error) {
	var s ecosystem.Startup
	if err := c.getJSON(ctx, "/angellist/startups/"+id, nil, &s); err != nil {
		return nil, err
	}
	return &s, nil
}

// followers pages through the users following a startup.
func (c *Client) followers(ctx context.Context, id string) ([]string, error) {
	var all []string
	page := 1
	for {
		var resp apiserver.FollowersResponse
		q := url.Values{"page": {strconv.Itoa(page)}}
		if err := c.getJSON(ctx, "/angellist/startups/"+id+"/followers", q, &resp); err != nil {
			return nil, err
		}
		all = append(all, resp.Followers...)
		if page >= resp.LastPage {
			return all, nil
		}
		page++
	}
}

// user fetches one AngelList user profile.
func (c *Client) user(ctx context.Context, id string) (*ecosystem.User, error) {
	var u ecosystem.User
	if err := c.getJSON(ctx, "/angellist/users/"+id, nil, &u); err != nil {
		return nil, err
	}
	return &u, nil
}

// cbOrganization fetches a CrunchBase profile by its URL.
func (c *Client) cbOrganization(ctx context.Context, cbURL string) (*ecosystem.CrunchBaseProfile, error) {
	var p ecosystem.CrunchBaseProfile
	if err := c.getJSON(ctx, "/crunchbase/organization", url.Values{"url": {cbURL}}, &p); err != nil {
		return nil, err
	}
	return &p, nil
}

// cbSearch searches CrunchBase by company name.
func (c *Client) cbSearch(ctx context.Context, name string) ([]*ecosystem.CrunchBaseProfile, error) {
	var resp apiserver.CBSearchResponse
	if err := c.getJSON(ctx, "/crunchbase/search", url.Values{"name": {name}}, &resp); err != nil {
		return nil, err
	}
	return resp.Results, nil
}

// facebookPage fetches a Facebook page profile by URL via the Graph API.
func (c *Client) facebookPage(ctx context.Context, fbURL string) (*ecosystem.FacebookProfile, error) {
	var p ecosystem.FacebookProfile
	if err := c.getJSON(ctx, "/facebook/graph", url.Values{"url": {fbURL}}, &p); err != nil {
		return nil, err
	}
	return &p, nil
}

// TwitterUser fetches a Twitter profile by screen name.
func (c *Client) TwitterUser(ctx context.Context, screenName string) (*ecosystem.TwitterProfile, error) {
	var p ecosystem.TwitterProfile
	if err := c.getJSON(ctx, "/twitter/users/show", url.Values{"screen_name": {screenName}}, &p); err != nil {
		return nil, err
	}
	return &p, nil
}
