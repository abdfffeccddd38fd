package crawler

import (
	"context"
	"errors"
	"slices"
	"sort"
	"strings"
	"sync"

	"crowdscope/internal/ecosystem"
	"crowdscope/internal/parallel"
)

// Snapshot holds everything one crawl collected, keyed exactly like the
// paper's datasets: AngelList startups and users, plus per-source
// augmentation profiles. A checkpoint record's Snapshot holds one step's
// additions, and the record carries the crawl's Stats itself.
type Snapshot struct {
	Startups   map[string]*ecosystem.Startup
	Users      map[string]*ecosystem.User
	CrunchBase map[string]*ecosystem.CrunchBaseProfile // by startup ID
	Facebook   map[string]*ecosystem.FacebookProfile   // by startup ID
	Twitter    map[string]*ecosystem.TwitterProfile    // by startup ID
	Stats      Stats                                   `json:"-"`
}

func newSnapshot() *Snapshot {
	return &Snapshot{
		Startups:   map[string]*ecosystem.Startup{},
		Users:      map[string]*ecosystem.User{},
		CrunchBase: map[string]*ecosystem.CrunchBaseProfile{},
		Facebook:   map[string]*ecosystem.FacebookProfile{},
		Twitter:    map[string]*ecosystem.TwitterProfile{},
	}
}

// Stats summarizes one crawl.
type Stats struct {
	Rounds           int // BFS levels until the frontier emptied
	SeedStartups     int // size of the raising listing
	StartupsCrawled  int
	UsersCrawled     int
	CBByLink         int // CrunchBase found via profile URL
	CBBySearch       int // CrunchBase found via unique name search
	CBAmbiguous      int // skipped: name search was not unique
	CBMissing        int // no CrunchBase data at all
	FacebookProfiles int
	TwitterProfiles  int
	Resumed          bool // this crawl continued from a checkpoint
	Checkpoints      int  // checkpoint steps written, across resumes
	Client           ClientStats
}

// Crawler runs the two-phase collection: BFS over AngelList, then
// augmentation from CrunchBase, Facebook and Twitter.
type Crawler struct {
	Client *Client
	// Workers bounds parallel fetches per phase. Default 8.
	Workers int
	// Checkpoint, when non-nil, persists progress after every BFS round
	// and augmentation batch so an interrupted crawl can resume. The
	// collected data is unchanged by interruption: a resumed crawl
	// produces the same snapshot contents as an uninterrupted one.
	Checkpoint *CheckpointConfig
}

// Run executes a full crawl. It is deterministic in the served world up to
// map iteration order of the result (callers sort).
func (cr *Crawler) Run(ctx context.Context) (*Snapshot, error) {
	if cr.Client == nil {
		return nil, errors.New("crawler: nil client")
	}
	workers := cr.Workers
	if workers <= 0 {
		workers = 8
	}
	snap := newSnapshot()
	var startupFrontier, userFrontier, augmented []string
	phase := PhaseBFS

	if cr.Checkpoint != nil && cr.Checkpoint.Resume {
		cp, ok, err := LoadCheckpoint(ctx, cr.Checkpoint.Store, cr.Checkpoint.Namespace)
		if err != nil {
			return nil, err
		}
		if ok {
			snap = cp.Added
			snap.Stats = cp.Stats
			snap.Stats.Resumed = true
			phase = cp.Phase
			startupFrontier = cp.StartupFrontier
			userFrontier = cp.UserFrontier
			augmented = cp.Augmented
			if phase == PhaseDone {
				snap.Stats.Client = cr.Client.counters()
				return snap, nil
			}
		}
	}

	save := func(cp Checkpoint) error {
		if cr.Checkpoint == nil {
			return nil
		}
		snap.Stats.Checkpoints++
		cp.Stats = snap.Stats
		return SaveCheckpoint(ctx, cr.Checkpoint.Store, cr.Checkpoint.Namespace, &cp)
	}

	pool := parallel.New(workers)
	var mu sync.Mutex // guards snap maps and the next-frontier sets

	if phase == PhaseBFS {
		if !snap.Stats.Resumed {
			// Phase 1 start: seed the BFS from the raising listing.
			seeds, err := cr.Client.RaisingStartups(ctx)
			if err != nil {
				return nil, err
			}
			snap.Stats.SeedStartups = len(seeds)
			startupFrontier = dedupe(seeds)
		}
		if err := cr.runBFS(ctx, pool, snap, &mu, startupFrontier, userFrontier, save); err != nil {
			return nil, err
		}
		phase = PhaseAugment
		// Mark the phase transition so a crash between phases resumes
		// directly into augmentation.
		if err := save(Checkpoint{Phase: PhaseAugment, Round: snap.Stats.Rounds}); err != nil {
			return nil, err
		}
	}

	snap.Stats.StartupsCrawled = len(snap.Startups)
	snap.Stats.UsersCrawled = len(snap.Users)

	if phase == PhaseAugment {
		if err := cr.augment(ctx, pool, snap, &mu, augmented, save); err != nil {
			return nil, err
		}
	}
	if err := save(Checkpoint{Phase: PhaseDone, Round: snap.Stats.Rounds}); err != nil {
		return nil, err
	}
	snap.Stats.Client = cr.Client.counters()
	return snap, nil
}

// runBFS crawls the AngelList follow graph breadth-first until both
// frontiers empty, checkpointing each completed round's additions.
func (cr *Crawler) runBFS(ctx context.Context, pool *parallel.Pool, snap *Snapshot, mu *sync.Mutex,
	startupFrontier, userFrontier []string, save func(Checkpoint) error) error {
	for len(startupFrontier) > 0 || len(userFrontier) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		snap.Stats.Rounds++
		var nextStartups, nextUsers []string
		added := &Snapshot{Startups: map[string]*ecosystem.Startup{}, Users: map[string]*ecosystem.User{}}

		// Fetch every startup in the frontier plus its follower list; the
		// followers become user-frontier candidates.
		err := pool.EachErr(len(startupFrontier), func(i int) error {
			id := startupFrontier[i]
			mu.Lock()
			_, seen := snap.Startups[id]
			mu.Unlock()
			if seen {
				return nil
			}
			st, err := cr.Client.startup(ctx, id)
			if err != nil {
				if errors.Is(err, ErrNotFound) {
					return nil
				}
				return err
			}
			followers, err := cr.Client.followers(ctx, id)
			if err != nil && !errors.Is(err, ErrNotFound) {
				return err
			}
			mu.Lock()
			snap.Startups[id] = st
			added.Startups[id] = st
			nextUsers = append(nextUsers, followers...)
			mu.Unlock()
			return nil
		})
		if err != nil {
			return err
		}

		// Fetch every user in the frontier; what they follow becomes the
		// next frontier on both sides.
		err = pool.EachErr(len(userFrontier), func(i int) error {
			id := userFrontier[i]
			mu.Lock()
			_, seen := snap.Users[id]
			mu.Unlock()
			if seen {
				return nil
			}
			u, err := cr.Client.user(ctx, id)
			if err != nil {
				if errors.Is(err, ErrNotFound) {
					return nil
				}
				return err
			}
			mu.Lock()
			snap.Users[id] = u
			added.Users[id] = u
			nextStartups = append(append(nextStartups, u.FollowsStartups...), u.Investments...)
			nextUsers = append(nextUsers, u.FollowsUsers...)
			mu.Unlock()
			return nil
		})
		if err != nil {
			return err
		}

		// The next frontiers are taken against the finished round: a
		// candidate fetched later in the same round (a user followed by a
		// startup and in this round's user frontier) is not work left.
		startupFrontier = unfetched(nextStartups, snap.Startups)
		userFrontier = unfetched(nextUsers, snap.Users)
		if err := save(Checkpoint{
			Phase:           PhaseBFS,
			Round:           snap.Stats.Rounds,
			StartupFrontier: startupFrontier,
			UserFrontier:    userFrontier,
			Added:           added,
		}); err != nil {
			return err
		}
	}
	return nil
}

// augment performs the one-time CrunchBase/Facebook/Twitter augmentation
// the paper describes in Section 3, in sorted batches with a checkpoint
// after each so interrupted runs re-fetch at most one batch. done lists
// the startups an earlier run already augmented.
func (cr *Crawler) augment(ctx context.Context, pool *parallel.Pool, snap *Snapshot, mu *sync.Mutex,
	done []string, save func(Checkpoint) error) error {
	doneSet := make(map[string]struct{}, len(done))
	for _, id := range done {
		doneSet[id] = struct{}{}
	}
	ids := make([]string, 0, len(snap.Startups))
	for id := range snap.Startups {
		if _, ok := doneSet[id]; !ok {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)

	batch := len(ids)
	if cr.Checkpoint != nil {
		batch = augmentBatch
	}
	for lo := 0; lo < len(ids); lo += batch {
		batchIDs := ids[lo:min(lo+batch, len(ids))]
		if err := pool.EachErr(len(batchIDs), func(i int) error {
			return cr.augmentOne(ctx, snap, mu, batchIDs[i])
		}); err != nil {
			return err
		}
		if err := save(Checkpoint{
			Phase:     PhaseAugment,
			Round:     snap.Stats.Rounds,
			Augmented: batchIDs,
			Added: &Snapshot{
				CrunchBase: pick(snap.CrunchBase, batchIDs),
				Facebook:   pick(snap.Facebook, batchIDs),
				Twitter:    pick(snap.Twitter, batchIDs),
			},
		}); err != nil {
			return err
		}
	}
	return nil
}

// pick returns the entries of m under ids.
func pick[T any](m map[string]*T, ids []string) map[string]*T {
	out := make(map[string]*T)
	for _, id := range ids {
		if v, ok := m[id]; ok {
			out[id] = v
		}
	}
	return out
}

// augmentOne attaches the external profiles of a single startup.
func (cr *Crawler) augmentOne(ctx context.Context, snap *Snapshot, mu *sync.Mutex, id string) error {
	st := snap.Startups[id]

	// CrunchBase: prefer the profile link; otherwise search by name
	// and accept only a unique match.
	var cb *ecosystem.CrunchBaseProfile
	viaLink := false
	if st.CrunchBaseURL != "" {
		p, err := cr.Client.cbOrganization(ctx, st.CrunchBaseURL)
		if err != nil && !errors.Is(err, ErrNotFound) {
			return err
		}
		cb = p
		viaLink = cb != nil
	}
	ambiguous := false
	if cb == nil {
		results, err := cr.Client.cbSearch(ctx, st.Name)
		if err != nil && !errors.Is(err, ErrNotFound) {
			return err
		}
		switch len(results) {
		case 1:
			cb = results[0]
		case 0:
		default:
			ambiguous = true
		}
	}

	var fb *ecosystem.FacebookProfile
	if st.FacebookURL != "" {
		p, err := cr.Client.facebookPage(ctx, st.FacebookURL)
		if err != nil && !errors.Is(err, ErrNotFound) {
			return err
		}
		fb = p
	}

	var tw *ecosystem.TwitterProfile
	if st.TwitterURL != "" {
		// Extract the username from the URL: the string after the
		// last "/" (exactly the paper's method).
		username := st.TwitterURL[strings.LastIndex(st.TwitterURL, "/")+1:]
		p, err := cr.Client.TwitterUser(ctx, username)
		if err != nil && !errors.Is(err, ErrNotFound) {
			return err
		}
		tw = p
	}

	mu.Lock()
	defer mu.Unlock()
	switch {
	case cb != nil && viaLink:
		snap.CrunchBase[id] = cb
		snap.Stats.CBByLink++
	case cb != nil:
		snap.CrunchBase[id] = cb
		snap.Stats.CBBySearch++
	case ambiguous:
		snap.Stats.CBAmbiguous++
	default:
		snap.Stats.CBMissing++
	}
	if fb != nil {
		snap.Facebook[id] = fb
		snap.Stats.FacebookProfiles++
	}
	if tw != nil {
		snap.Twitter[id] = tw
		snap.Stats.TwitterProfiles++
	}
	return nil
}

// unfetched is the sorted set of ids not in fetched. The set is
// deterministic but its discovery order is not; sorting keeps
// checkpoint records stable.
func unfetched[T any](ids []string, fetched map[string]*T) []string {
	ids = slices.DeleteFunc(dedupe(ids), func(id string) bool {
		_, ok := fetched[id]
		return ok
	})
	sort.Strings(ids)
	return ids
}

func dedupe(ids []string) []string {
	seen := make(map[string]struct{}, len(ids))
	out := ids[:0:0]
	for _, id := range ids {
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		out = append(out, id)
	}
	return out
}
