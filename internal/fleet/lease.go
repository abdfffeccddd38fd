package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"crowdscope/internal/apiserver"
	"crowdscope/internal/store"
)

// DefaultLeaseNS is the store namespace holding frontier lease records.
const DefaultLeaseNS = "fleet/leases"

// DefaultLeaseTTL is how long a claim stays valid without renewal. Every
// checkpoint write renews, so a live worker never expires; a crashed one
// frees its partition after at most one TTL.
const DefaultLeaseTTL = time.Minute

// ErrLeaseHeld reports an acquire on a partition whose current lease is
// still live and owned by someone else.
var ErrLeaseHeld = errors.New("fleet: lease held")

// ErrFenced reports an operation with a lease that is no longer current:
// the partition was reclaimed and a higher fencing token minted. The
// holder must stop writing under this lease.
var ErrFenced = errors.New("fleet: fenced out")

// LeaseRecord is one durable lease transition in the lease namespace.
// State is append-only like every other namespace: the live table is the
// highest-token record per key, and tokens are minted strictly
// increasing across all keys, so any two records for a key are totally
// ordered no matter which worker appended them.
type LeaseRecord struct {
	Key   string `json:"key"`
	Owner string `json:"owner"`
	Token int64  `json:"token"`
	// Expires is the claim's expiry on the coordinator clock, in
	// nanoseconds since the epoch. Wall-clock-free tests inject a fake
	// Clock and advance it explicitly.
	Expires int64 `json:"expires_unix_nano"`
	// Released marks a voluntary hand-back; the key is immediately
	// claimable regardless of Expires.
	Released bool `json:"released,omitempty"`
}

// Lease is a claim handed to the acquiring worker. Token doubles as the
// checkpoint fence for every record written under the claim.
type Lease struct {
	Key     string
	Owner   string
	Token   int64
	Expires time.Time
}

// Leases manages partition claims persisted in a store namespace. All
// methods take the coordinator's view: they rescan the namespace, so a
// record appended by any worker sharing the store is visible to all.
// The in-process mutex serializes claim decisions between goroutines
// sharing this manager (the crowdscope fleet process tree); workers in
// separate processes are still safe because every write under a lease is
// fenced — a doomed double-claim loses at merge time, not silently.
type Leases struct {
	// Store holds the lease namespace. Required.
	Store *store.Store
	// Clock supplies the coordinator time. Required (fleet code never
	// reads the wall clock directly; pass time.Now at the edge).
	Clock apiserver.Clock
	// Namespace for lease records. Default DefaultLeaseNS.
	Namespace string

	mu sync.Mutex
}

func (l *Leases) ns() string {
	if l.Namespace == "" {
		return DefaultLeaseNS
	}
	return l.Namespace
}

func (l *Leases) check() error {
	if l.Store == nil {
		return errors.New("fleet: Leases.Store is nil")
	}
	if l.Clock == nil {
		return errors.New("fleet: Leases.Clock is nil")
	}
	return nil
}

// state folds the namespace into the live record per key plus the
// highest token ever minted (the next token must exceed it).
func (l *Leases) state(ctx context.Context) (map[string]LeaseRecord, int64, error) {
	cur := map[string]LeaseRecord{}
	var maxToken int64
	known := false
	for _, n := range l.Store.Namespaces() {
		if n == l.ns() {
			known = true
			break
		}
	}
	if !known {
		return cur, 0, nil
	}
	err := store.ScanAsContext(ctx, l.Store, l.ns(), func(rec LeaseRecord) error {
		if rec.Token > maxToken {
			maxToken = rec.Token
		}
		if prev, ok := cur[rec.Key]; !ok || rec.Token >= prev.Token {
			cur[rec.Key] = rec
		}
		return nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("fleet: lease scan: %w", err)
	}
	return cur, maxToken, nil
}

func (l *Leases) append(ctx context.Context, rec LeaseRecord) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("fleet: lease append: %w", err)
	}
	w, err := l.Store.Writer(l.ns(), 1)
	if err != nil {
		return fmt.Errorf("fleet: lease append: %w", err)
	}
	if err := w.Append(rec.Key, rec); err != nil {
		w.Abort()
		return fmt.Errorf("fleet: lease append: %w", err)
	}
	if err := w.Close(); err != nil {
		return fmt.Errorf("fleet: lease append: %w", err)
	}
	return nil
}

// acquire claims key for owner. It succeeds when the key has never been
// leased, its current lease is expired or released, or owner already
// holds it (the claim is then re-minted with a fresh, higher token —
// useful after a worker error-and-retry). A live lease held by another
// owner returns ErrLeaseHeld.
func (l *Leases) acquire(ctx context.Context, key, owner string) (Lease, error) {
	if err := l.check(); err != nil {
		return Lease{}, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	//lint:ignore lockdisc claim decisions are check-then-append transactions; the lock spanning the tiny lease-namespace scan is what makes acquire atomic
	cur, maxToken, err := l.state(ctx)
	if err != nil {
		return Lease{}, err
	}
	now := l.Clock()
	if rec, ok := cur[key]; ok && !rec.Released && rec.Owner != owner && rec.Expires > now.UnixNano() {
		return Lease{}, fmt.Errorf("fleet: acquire %s: held by %s until %s: %w",
			key, rec.Owner, time.Unix(0, rec.Expires).UTC().Format(time.RFC3339), ErrLeaseHeld)
	}
	lease := Lease{Key: key, Owner: owner, Token: maxToken + 1, Expires: now.Add(DefaultLeaseTTL)}
	if err := l.append(ctx, LeaseRecord{Key: key, Owner: owner, Token: lease.Token, Expires: lease.Expires.UnixNano()}); err != nil {
		return Lease{}, err
	}
	return lease, nil
}

// renew extends the lease by one TTL from now, verifying first that it
// is still the key's current claim. A reclaimed key returns ErrFenced —
// this is the checkpoint guard for fleet workers, so a worker that lost
// its partition aborts at its next persist.
func (l *Leases) renew(ctx context.Context, lease *Lease) error {
	if err := l.check(); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.verify(ctx, *lease); err != nil {
		return err
	}
	expires := l.Clock().Add(DefaultLeaseTTL)
	if err := l.append(ctx, LeaseRecord{Key: lease.Key, Owner: lease.Owner, Token: lease.Token, Expires: expires.UnixNano()}); err != nil {
		return err
	}
	lease.Expires = expires
	return nil
}

// release voluntarily hands the key back, making it claimable without
// waiting out the TTL. Releasing a lease that was already reclaimed
// returns ErrFenced (the release would clobber the new owner's claim).
func (l *Leases) release(ctx context.Context, lease Lease) error {
	if err := l.check(); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.verify(ctx, lease); err != nil {
		return err
	}
	//lint:ignore lockdisc the verify-then-append pair must be atomic; the appended record is a single lease transition
	return l.append(ctx, LeaseRecord{Key: lease.Key, Owner: lease.Owner, Token: lease.Token, Released: true})
}

func (l *Leases) verify(ctx context.Context, lease Lease) error {
	cur, _, err := l.state(ctx)
	if err != nil {
		return err
	}
	rec, ok := cur[lease.Key]
	if !ok {
		return fmt.Errorf("fleet: lease %s: no record: %w", lease.Key, ErrFenced)
	}
	if rec.Token != lease.Token || rec.Owner != lease.Owner {
		return fmt.Errorf("fleet: lease %s: now token %d owner %s: %w", lease.Key, rec.Token, rec.Owner, ErrFenced)
	}
	if rec.Released {
		return fmt.Errorf("fleet: lease %s: already released: %w", lease.Key, ErrFenced)
	}
	return nil
}
