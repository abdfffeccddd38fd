package apiserver

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"crowdscope/internal/ecosystem"
)

// Options configures the simulated services.
type Options struct {
	// PageSize for paginated listings; default 50.
	PageSize int
	// Tokens valid across all services. Twitter rate windows are tracked
	// per token. Default: one token "tok-default".
	Tokens []string
	// TwitterLimit and TwitterWindow implement the paper's "180 calls
	// every 15 minutes" constraint. Defaults: 180, 15m.
	TwitterLimit  int
	TwitterWindow time.Duration
	// Faults enables the deterministic fault injector (5xx, 429 bursts,
	// slow responses, truncated bodies, connection resets), replayable
	// from its seed. Nil disables injection.
	Faults *FaultConfig
	// Clock for rate limiting; defaults to time.Now. Injecting a fixed
	// clock makes rate-limit behaviour fully deterministic — this is the
	// escape hatch the crowdlint determinism analyzer expects (see the
	// Clock type's doc comment).
	Clock Clock
}

func (o *Options) fill() {
	if o.PageSize <= 0 {
		o.PageSize = 50
	}
	if len(o.Tokens) == 0 {
		o.Tokens = []string{"tok-default"}
	}
	if o.TwitterLimit <= 0 {
		o.TwitterLimit = 180
	}
	if o.TwitterWindow <= 0 {
		o.TwitterWindow = 15 * time.Minute
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
}

// Server exposes the four simulated services as one http.Handler.
//
// Routes:
//
//	GET /angellist/startups/raising?page=N
//	GET /angellist/startups/{id}
//	GET /angellist/startups/{id}/followers?page=N
//	GET /angellist/users/{id}
//	GET /crunchbase/organization?url=U
//	GET /crunchbase/search?name=N
//	GET /facebook/graph?url=U
//	GET /twitter/users/show?screen_name=S
type Server struct {
	world   *ecosystem.World
	opts    Options
	mux     *http.ServeMux
	handler http.Handler
	faults  *faultInjector

	tokens    map[string]bool // fixed at New: read without a lock
	twLimiter *fixedWindow

	// raisingIDs snapshots the raising listing order; refreshed on Reload.
	mu         sync.RWMutex
	raisingIDs []string
	followers  map[string][]string // startup ID -> follower user IDs
	twByName   map[string]*ecosystem.TwitterProfile

	// calls counts authorized requests, for throughput ablations.
	calls atomic.Int64
}

// New builds a server over the world.
func New(w *ecosystem.World, opts Options) *Server {
	opts.fill()
	s := &Server{
		world:     w,
		opts:      opts,
		tokens:    map[string]bool{},
		twLimiter: newFixedWindow(opts.TwitterLimit, opts.TwitterWindow, opts.Clock),
	}
	for _, t := range opts.Tokens {
		s.tokens[t] = true
	}
	s.Reload()
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/angellist/startups/raising", s.handleRaising)
	s.mux.HandleFunc("/angellist/startups/", s.handleStartup)
	s.mux.HandleFunc("/angellist/users/", s.handleUser)
	s.mux.HandleFunc("/crunchbase/organization", s.handleCBOrganization)
	s.mux.HandleFunc("/crunchbase/search", s.handleCBSearch)
	s.mux.HandleFunc("/facebook/graph", s.handleFacebook)
	s.mux.HandleFunc("/twitter/users/show", s.handleTwitter)
	s.handler = s.mux
	if opts.Faults != nil {
		s.faults = newFaultInjector(*opts.Faults)
		s.handler = s.faults.withFaults(s.mux)
	}
	return s
}

// Reload rebuilds the derived indices (raising listing, follower lists,
// Twitter usernames) from the world; call it after ecosystem.Evolve steps
// in longitudinal runs.
func (s *Server) Reload() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.raisingIDs = s.raisingIDs[:0]
	for _, st := range s.world.Startups {
		if st.Raising {
			s.raisingIDs = append(s.raisingIDs, st.ID)
		}
	}
	s.followers = make(map[string][]string, len(s.world.Startups))
	for _, u := range s.world.Users {
		for _, sid := range u.FollowsStartups {
			s.followers[sid] = append(s.followers[sid], u.ID)
		}
	}
	s.twByName = make(map[string]*ecosystem.TwitterProfile, len(s.world.Twitter))
	for _, p := range s.world.Twitter {
		s.twByName[strings.ToLower(p.Username)] = p
	}
}

// Handler returns the root handler, including the fault-injection layer
// when one is configured.
func (s *Server) Handler() http.Handler { return s.handler }

// FaultStats reports how many faults the injector has served, by kind.
// It is zero-valued when no fault injection is configured.
func (s *Server) FaultStats() FaultStats {
	if s.faults == nil {
		return FaultStats{}
	}
	return s.faults.Stats()
}

// Calls reports how many authorized requests the server has handled.
func (s *Server) Calls() int64 { return s.calls.Load() }

// ---- Shared plumbing ----

type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	//lint:ignore errwrap the status line is already on the wire; an encode failure here has no channel back to the client
	_ = json.NewEncoder(w).Encode(v)
}

// authorize validates the bearer token and counts the call. It returns
// the token and false if the request was already answered.
func (s *Server) authorize(w http.ResponseWriter, r *http.Request) (string, bool) {
	token := ""
	if h := r.Header.Get("Authorization"); strings.HasPrefix(h, "Bearer ") {
		token = strings.TrimPrefix(h, "Bearer ")
	} else {
		token = r.URL.Query().Get("access_token")
	}
	if !s.tokens[token] {
		writeJSON(w, http.StatusUnauthorized, apiError{Error: "invalid access token"})
		return "", false
	}
	s.calls.Add(1)
	return token, true
}

// page slices a list for ?page=N (1-based) responses.
func (s *Server) page(r *http.Request, n int) (lo, hi, pageNum, lastPage int) {
	pageNum = 1
	if p := r.URL.Query().Get("page"); p != "" {
		if v, err := strconv.Atoi(p); err == nil && v > 0 {
			pageNum = v
		}
	}
	size := s.opts.PageSize
	lastPage = (n + size - 1) / size
	if lastPage == 0 {
		lastPage = 1
	}
	lo = (pageNum - 1) * size
	hi = lo + size
	if lo > n {
		lo = n
	}
	if hi > n {
		hi = n
	}
	return lo, hi, pageNum, lastPage
}

// ---- AngelList ----

// RaisingResponse is the paginated listing of currently-raising startups.
type RaisingResponse struct {
	Startups []string `json:"startups"`
	Page     int      `json:"page"`
	LastPage int      `json:"last_page"`
}

func (s *Server) handleRaising(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.authorize(w, r); !ok {
		return
	}
	s.mu.RLock()
	ids := s.raisingIDs
	s.mu.RUnlock()
	lo, hi, page, last := s.page(r, len(ids))
	writeJSON(w, http.StatusOK, RaisingResponse{
		Startups: ids[lo:hi],
		Page:     page,
		LastPage: last,
	})
}

// FollowersResponse is the paginated follower listing of one startup.
type FollowersResponse struct {
	Followers []string `json:"followers"`
	Page      int      `json:"page"`
	LastPage  int      `json:"last_page"`
}

func (s *Server) handleStartup(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.authorize(w, r); !ok {
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/angellist/startups/")
	if id, ok := strings.CutSuffix(rest, "/followers"); ok {
		s.mu.RLock()
		fs := s.followers[id]
		s.mu.RUnlock()
		if s.world.StartupByID(id) == nil {
			writeJSON(w, http.StatusNotFound, apiError{Error: "unknown startup " + id})
			return
		}
		lo, hi, page, last := s.page(r, len(fs))
		writeJSON(w, http.StatusOK, FollowersResponse{
			Followers: fs[lo:hi],
			Page:      page,
			LastPage:  last,
		})
		return
	}
	st := s.world.StartupByID(rest)
	if st == nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown startup " + rest})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleUser(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.authorize(w, r); !ok {
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/angellist/users/")
	u := s.world.UserByID(id)
	if u == nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown user " + id})
		return
	}
	writeJSON(w, http.StatusOK, u)
}

// ---- CrunchBase ----

func (s *Server) handleCBOrganization(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.authorize(w, r); !ok {
		return
	}
	url := r.URL.Query().Get("url")
	p, ok := s.world.CrunchBase[url]
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown organization"})
		return
	}
	writeJSON(w, http.StatusOK, p)
}

// CBSearchResponse lists organizations matching a name search.
type CBSearchResponse struct {
	Results []*ecosystem.CrunchBaseProfile `json:"results"`
}

func (s *Server) handleCBSearch(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.authorize(w, r); !ok {
		return
	}
	name := r.URL.Query().Get("name")
	if name == "" {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "missing name"})
		return
	}
	writeJSON(w, http.StatusOK, CBSearchResponse{Results: s.world.CrunchBaseByName(name)})
}

// ---- Facebook Graph ----

func (s *Server) handleFacebook(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.authorize(w, r); !ok {
		return
	}
	url := r.URL.Query().Get("url")
	p, ok := s.world.Facebook[url]
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown page"})
		return
	}
	writeJSON(w, http.StatusOK, p)
}

// ---- Twitter ----

func (s *Server) handleTwitter(w http.ResponseWriter, r *http.Request) {
	token, ok := s.authorize(w, r)
	if !ok {
		return
	}
	if allowed, retry := s.twLimiter.allow(token); !allowed {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int(retry.Seconds())+1))
		writeJSON(w, http.StatusTooManyRequests, apiError{Error: "rate limit exceeded"})
		return
	}
	name := strings.ToLower(r.URL.Query().Get("screen_name"))
	s.mu.RLock()
	p, found := s.twByName[name]
	s.mu.RUnlock()
	if !found {
		writeJSON(w, http.StatusNotFound, apiError{Error: "unknown user"})
		return
	}
	writeJSON(w, http.StatusOK, p)
}
