package crawler

import (
	"context"
	"errors"
	"sort"
	"strings"
	"sync"

	"crowdscope/internal/ecosystem"
)

// Snapshot holds everything one crawl collected, keyed exactly like the
// paper's datasets: AngelList startups and users, plus per-source
// augmentation profiles.
type Snapshot struct {
	Startups   map[string]*ecosystem.Startup
	Users      map[string]*ecosystem.User
	CrunchBase map[string]*ecosystem.CrunchBaseProfile // by startup ID
	Facebook   map[string]*ecosystem.FacebookProfile   // by startup ID
	Twitter    map[string]*ecosystem.TwitterProfile    // by startup ID
	Stats      Stats
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
	Checkpoints      int  // checkpoints written by this process
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
	snap := &Snapshot{
		Startups:   map[string]*ecosystem.Startup{},
		Users:      map[string]*ecosystem.User{},
		CrunchBase: map[string]*ecosystem.CrunchBaseProfile{},
		Facebook:   map[string]*ecosystem.FacebookProfile{},
		Twitter:    map[string]*ecosystem.TwitterProfile{},
	}

	var startupFrontier, userFrontier []string
	var augmentDone []string
	phase := PhaseBFS
	seeded := false
	cpSeq := 0

	if cr.Checkpoint != nil && cr.Checkpoint.Resume {
		cp, ok, err := LoadCheckpoint(ctx, cr.Checkpoint.Store, cr.Checkpoint.Namespace)
		if err != nil {
			return nil, err
		}
		if ok {
			snap = cp.Snap
			snap.Stats.Resumed = true
			phase = cp.Phase
			startupFrontier = cp.StartupFrontier
			userFrontier = cp.UserFrontier
			augmentDone = cp.AugmentDone
			cpSeq = cp.Seq + 1
			seeded = true
			if phase != PhaseBFS && phase != PhaseAugment {
				// Terminal checkpoint: the crawl already finished.
				snap.Stats.Client = cr.Client.counters()
				return snap, nil
			}
		}
	}

	save := func(cp Checkpoint) error {
		if cr.Checkpoint == nil {
			return nil
		}
		cp.Seq = cpSeq
		cp.Snap = snap
		if err := SaveCheckpoint(ctx, cr.Checkpoint.Store, cr.Checkpoint.Namespace, &cp); err != nil {
			return err
		}
		cpSeq++
		snap.Stats.Checkpoints++
		return nil
	}

	var mu sync.Mutex // guards snap maps and the next-frontier sets

	if phase == PhaseBFS {
		if !seeded {
			// Phase 1 start: seed the BFS from the raising listing.
			seeds, err := cr.Client.RaisingStartups(ctx)
			if err != nil {
				return nil, err
			}
			snap.Stats.SeedStartups = len(seeds)
			startupFrontier = dedupe(seeds)
		}
		if err := cr.runBFS(ctx, workers, snap, &mu, startupFrontier, userFrontier, save); err != nil {
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
		if err := cr.augment(ctx, workers, snap, &mu, augmentDone, save); err != nil {
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
// frontiers empty, checkpointing after each completed round.
func (cr *Crawler) runBFS(ctx context.Context, workers int, snap *Snapshot, mu *sync.Mutex,
	startupFrontier, userFrontier []string, save func(Checkpoint) error) error {
	for len(startupFrontier) > 0 || len(userFrontier) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		snap.Stats.Rounds++
		var nextStartups, nextUsers []string

		// Fetch every startup in the frontier plus its follower list; the
		// followers become user-frontier candidates.
		err := parallel(ctx, workers, startupFrontier, func(id string) error {
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
			for _, uid := range followers {
				if _, ok := snap.Users[uid]; !ok {
					nextUsers = append(nextUsers, uid)
				}
			}
			mu.Unlock()
			return nil
		})
		if err != nil {
			return err
		}

		// Fetch every user in the frontier; what they follow becomes the
		// next frontier on both sides.
		err = parallel(ctx, workers, userFrontier, func(id string) error {
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
			for _, sid := range u.FollowsStartups {
				if _, ok := snap.Startups[sid]; !ok {
					nextStartups = append(nextStartups, sid)
				}
			}
			for _, sid := range u.Investments {
				if _, ok := snap.Startups[sid]; !ok {
					nextStartups = append(nextStartups, sid)
				}
			}
			for _, uid := range u.FollowsUsers {
				if _, ok := snap.Users[uid]; !ok {
					nextUsers = append(nextUsers, uid)
				}
			}
			mu.Unlock()
			return nil
		})
		if err != nil {
			return err
		}

		startupFrontier = dedupe(nextStartups)
		userFrontier = dedupe(nextUsers)
		// The frontier *sets* are deterministic but their discovery order
		// is not; sort so checkpoint records are stable.
		sort.Strings(startupFrontier)
		sort.Strings(userFrontier)
		if err := save(Checkpoint{
			Phase:           PhaseBFS,
			Round:           snap.Stats.Rounds,
			StartupFrontier: startupFrontier,
			UserFrontier:    userFrontier,
		}); err != nil {
			return err
		}
	}
	return nil
}

// augment performs the one-time CrunchBase/Facebook/Twitter augmentation
// the paper describes in Section 3, in sorted batches with a checkpoint
// after each so interrupted runs re-fetch at most one batch.
func (cr *Crawler) augment(ctx context.Context, workers int, snap *Snapshot, mu *sync.Mutex,
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
		hi := lo + batch
		if hi > len(ids) {
			hi = len(ids)
		}
		if err := parallel(ctx, workers, ids[lo:hi], func(id string) error {
			return cr.augmentOne(ctx, snap, mu, id)
		}); err != nil {
			return err
		}
		done = append(done, ids[lo:hi]...)
		if err := save(Checkpoint{
			Phase:       PhaseAugment,
			Round:       snap.Stats.Rounds,
			AugmentDone: done,
		}); err != nil {
			return err
		}
	}
	return nil
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

// parallel runs f over items with bounded workers. After the first error
// no new items are dispatched, but every failure from in-flight workers
// is recorded; the result joins them all (errors.Join) so callers can
// inspect the complete failure set.
func parallel(ctx context.Context, workers int, items []string, f func(string) error) error {
	if len(items) == 0 {
		return nil
	}
	if workers > len(items) {
		workers = len(items)
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		next int
		errs []error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if len(errs) > 0 || next >= len(items) {
					mu.Unlock()
					return
				}
				item := items[next]
				next++
				mu.Unlock()
				if err := ctx.Err(); err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
					return
				}
				if err := f(item); err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
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
