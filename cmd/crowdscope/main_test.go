package main

// The golden files under testdata/ were recorded from the per-stage
// binaries this command replaced (crowdgen, crowdcrawl, crowdquery,
// crowdanalyze, crowdviz, crowdscale, crowdserve) built at commit
// 6d7d15c, with the same flags as each test below. Every scenario was
// run twice there first; a line may be normalised here only if it
// differed between those two runs, and each test names the lines it
// normalises and why. Everything else must match byte for byte.

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"crowdscope"
	"crowdscope/internal/leakcheck"
)

// crawlArgs is the crawl every store-reading scenario starts from.
var crawlArgs = []string{"crawl", "-seed", "7", "-scale", "0.003", "-snapshots", "2"}

var fixture struct {
	once   sync.Once
	dir    string
	stdout string
	err    error
}

// crawledStore runs crawlArgs once per test binary into a temp store
// and returns the store directory and the crawl's stdout.
func crawledStore(t *testing.T) (string, string) {
	t.Helper()
	fixture.once.Do(func() {
		fixture.dir, fixture.err = os.MkdirTemp("", "crowdscope-test-*")
		if fixture.err != nil {
			return
		}
		store := filepath.Join(fixture.dir, "store")
		var out bytes.Buffer
		fixture.err = run(context.Background(), append(crawlArgs, "-store", store), &out)
		fixture.dir, fixture.stdout = store, out.String()
	})
	if fixture.err != nil {
		t.Fatal(fixture.err)
	}
	return fixture.dir, fixture.stdout
}

func TestMain(m *testing.M) {
	code := m.Run()
	if fixture.dir != "" {
		os.RemoveAll(filepath.Dir(fixture.dir))
	}
	os.Exit(code)
}

// runOut runs args in-process and returns stdout.
func runOut(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(context.Background(), args, &out); err != nil {
		t.Fatalf("crowdscope %s: %v", strings.Join(args, " "), err)
	}
	return out.String()
}

// chdir moves the process into dir for the rest of the test, so that
// relative -out paths print as they did when the goldens were recorded.
// The goldens are read by absolute path, which works from any directory.
func chdir(t *testing.T, dir string) {
	t.Helper()
	prev, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(prev); err != nil {
			t.Fatal(err)
		}
	})
}

// testdata is the absolute path of the golden directory, fixed before
// any test changes directory.
var testdata = func() string {
	abs, err := filepath.Abs("testdata")
	if err != nil {
		panic(err)
	}
	return abs
}()

func golden(t *testing.T, name string) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(testdata, name))
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

func assertSame(t *testing.T, what, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s differs from the golden at line %d:\n got: %q\nwant: %q", what, i+1, g, w)
		}
	}
}

// assertDigests checks every file named in the sha256sum-style golden
// against the file of the same name in dir.
func assertDigests(t *testing.T, goldenName, dir string) {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(golden(t, goldenName)))
	for sc.Scan() {
		want, name, ok := strings.Cut(sc.Text(), "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenName, sc.Text())
		}
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(raw)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: sha256 %s, want %s", name, got, want)
		}
	}
}

// maskLines replaces every match of re with a placeholder.
func maskLines(s string, re *regexp.Regexp) string {
	return re.ReplaceAllString(s, "<masked>")
}

func TestGenGolden(t *testing.T) {
	// -out is relative so the "entities written to" line is the same
	// path the golden was recorded with.
	chdir(t, t.TempDir())
	got := runOut(t, "gen", "-seed", "7", "-scale", "0.002", "-out", "out")
	assertSame(t, "gen stdout", got, golden(t, "gen.stdout"))
	assertDigests(t, "gen.sha256", "out")
}

// Both crawl goldens were re-recorded twice on purpose. First, the two
// "store frozen/snap-*" size lines fell from 184.8/185.0 KiB to
// 173.2/173.3 KiB when the frozen artifact stopped storing the
// investment graph (its g.* sections), which the reader rebuilds from
// the investor rows. Then the two "store checkpoint/snap-*" lines fell
// from 41/42 records of 50339.1/51489.6 KiB to 40/41 records of
// 1379.2/1379.8 KiB when a checkpoint record came to hold only what
// its step added and the users still to fetch, and the pipeline
// stopped appending a whole-crawl marker record after each round's
// freeze. Every other line, and every snapshot row, is as recorded.
func TestCrawlGolden(t *testing.T) {
	_, got := crawledStore(t)
	assertSame(t, "crawl stdout", got, golden(t, "crawl.stdout"))
}

func TestCrawlFaultsGolden(t *testing.T) {
	got := runOut(t, append(crawlArgs, "-fault-rate", "0.05", "-fault-seed", "7", "-store", t.TempDir())...)
	// Two lines differed between two runs at the recording commit: the
	// "http:" request/retry counts (11,887 vs 11,886 requests in
	// snapshot 0) and the checkpoint/snap-000 namespace size (50339.1 vs
	// 50339.0 KiB). A connection reset can hit a request on a reused
	// keep-alive connection, which the transport retries on its own, so
	// both depend on connection timing. The fault schedule, the crawled
	// entities and every other namespace do not.
	varying := regexp.MustCompile(`(?m)^(  http: .*|store checkpoint/.*)$`)
	assertSame(t, "faulted crawl stdout", maskLines(got, varying), maskLines(golden(t, "crawl_faults.stdout"), varying))
}

var queryStatements = []string{
	`SELECT role, COUNT(*) AS n FROM angellist/users GROUP BY role ORDER BY n DESC`,
	`SELECT COUNT(*) FROM frozen/snap-000001/companies WHERE Raising`,
	`SELECT ID, Likes FROM frozen/snap-000001/companies ORDER BY Likes DESC LIMIT 5`,
}

func TestQueryGolden(t *testing.T) {
	dir, _ := crawledStore(t)
	for _, tc := range []struct {
		golden string
		flags  []string
	}{
		{"query.stdout", nil},
		{"query_explain.stdout", []string{"-explain"}},
	} {
		var got strings.Builder
		for _, stmt := range queryStatements {
			args := append(append([]string{"query", "-store", dir}, tc.flags...), stmt)
			got.WriteString(runOut(t, args...))
		}
		assertSame(t, tc.golden, got.String(), golden(t, tc.golden))
	}
}

func TestQueryInteractiveGolden(t *testing.T) {
	dir, _ := crawledStore(t)
	in, err := os.Open(filepath.Join(testdata, "query_interactive.stdin"))
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	stdin := os.Stdin
	os.Stdin = in
	defer func() { os.Stdin = stdin }()
	got := runOut(t, "query", "-store", dir, "-explain")
	assertSame(t, "interactive query stdout", got, golden(t, "query_interactive.stdout"))
}

func TestQueryRebuildGolden(t *testing.T) {
	src, _ := crawledStore(t)
	// -rebuild-snapshot writes; work on a copy of the shared store.
	dir := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dir, rel), 0o755)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, rel), raw, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	got := runOut(t, "query", "-store", dir, "-rebuild-snapshot", `SELECT COUNT(*) FROM frozen/snap-000001/investors`)
	assertSame(t, "rebuild query stdout", got, golden(t, "query_rebuild.stdout"))
}

func TestAnalyzeGolden(t *testing.T) {
	chdir(t, t.TempDir())
	got := runOut(t, "analyze", "-seed", "7", "-scale", "0.003", "-exp", "all", "-out", "out")
	// The golden is crowdanalyze -csv out, which could not render SVGs
	// and said so on one line; -out renders them from the same run and
	// reports each file in that line's place.
	want := strings.Replace(golden(t, "analyze_all.stdout"), "(render SVGs with cmd/crowdviz)\n",
		"(svg written: out/strong.svg)\n(svg written: out/weak.svg)\n(svg written: out/overview.svg)\n", 1)
	assertSame(t, "analyze stdout", got, want)
	// CSVs as crowdanalyze -csv wrote them; SVGs as crowdviz -out did.
	assertDigests(t, "analyze_all.sha256", "out")
}

func TestAnalyzeBandLayout(t *testing.T) {
	out := t.TempDir()
	got := runOut(t, "analyze", "-seed", "7", "-scale", "0.003", "-exp", "fig7", "-out", out, "-layout", "band")
	if !strings.Contains(got, "(svg written: "+out+"/strong.svg)") {
		t.Errorf("stdout does not report strong.svg:\n%s", got)
	}
	assertDigests(t, "fig7_band.sha256", out)
}

func TestScaleGolden(t *testing.T) {
	for _, store := range []string{t.TempDir(), ""} {
		got := runOut(t, "scale", "-scale", "0.01", "-shards", "4", "-store", store)
		// Wall-clock and RSS readings are the only fields that differed
		// between two runs (per stage and in total); every count must
		// match.
		timing := regexp.MustCompile(`"(seconds|peak_rss_mb|total_seconds)": [0-9.e+-]+`)
		assertSame(t, "scale JSON", maskLines(got, timing), maskLines(golden(t, "scale.json"), timing))
	}
}

// lockedBuffer is a stdout that run writes while the test reads it.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// startServer runs args in the background and returns the address from
// the first stdout line starting with prefix (its last field), the
// stdout up to then, the cancel that starts the drain, and the channel
// run's result arrives on.
func startServer(t *testing.T, prefix string, args ...string) (string, string, context.CancelFunc, <-chan error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	var out lockedBuffer
	done := make(chan error, 1)
	go func() { done <- run(ctx, args, &out) }()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		stdout := out.String()
		if addr := lastField(stdout, prefix); addr != "" {
			return addr, stdout, cancel, done
		}
		select {
		case err := <-done:
			t.Fatalf("run returned before serving: %v\n%s", err, out.String())
		case <-time.After(20 * time.Millisecond):
		}
	}
	t.Fatalf("no %q line within 60s:\n%s", prefix, out.String())
	return "", "", nil, nil
}

// lastField returns the last field of the first line of stdout starting
// with prefix, or "".
func lastField(stdout, prefix string) string {
	for _, line := range strings.Split(stdout, "\n") {
		if fields := strings.Fields(line); strings.HasPrefix(line, prefix) && len(fields) > 0 {
			return fields[len(fields)-1]
		}
	}
	return ""
}

// get fetches path from addr with a client whose connections the test
// closes, and returns the status and body.
func get(t *testing.T, client *http.Client, addr, path string) (int, string) {
	t.Helper()
	resp, err := client.Get("http://" + addr + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// waitReady polls /readyz until it answers 200.
func waitReady(t *testing.T, client *http.Client, addr string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, body := get(t, client, addr, "/readyz")
		if code == http.StatusOK {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("/readyz still %d: %s", code, body)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// stopServer cancels run, waits for it to return and checks the
// listener is gone.
func stopServer(t *testing.T, client *http.Client, addr string, cancel context.CancelFunc, done <-chan error) {
	t.Helper()
	client.CloseIdleConnections()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after drain: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not return after cancel")
	}
	if conn, err := net.Dial("tcp", addr); err == nil {
		conn.Close()
		t.Fatalf("%s still accepts connections after run returned", addr)
	}
}

// TestServeDrain serves the crawled store from one replica and from two
// behind the front. Both ways the query body must be the crowdserve
// golden byte for byte, so the front passes replica bodies through
// untouched.
func TestServeDrain(t *testing.T) {
	dir, _ := crawledStore(t)
	for _, replicas := range []string{"1", "2"} {
		t.Run("replicas-"+replicas, func(t *testing.T) {
			leakcheck.Check(t)
			client := &http.Client{Transport: &http.Transport{}}
			addr, _, cancel, done := startServer(t, "serving ", "serve", "-store", dir, "-addr", "127.0.0.1:0", "-replicas", replicas)
			waitReady(t, client, addr)
			code, body := get(t, client, addr, "/api/query?q="+url.QueryEscape(queryStatements[0]))
			if code != http.StatusOK {
				t.Fatalf("/api/query: %d %s", code, body)
			}
			// The body crowdserve gave for the same statement over the
			// same store; the encoder's trailing newline is part of it.
			assertSame(t, "/api/query body", body, golden(t, "serve_query.json"))
			stopServer(t, client, addr, cancel, done)
		})
	}
}

// TestServeReplicasStartUnreadyAndRefreshByDelta starts two replicas
// behind the front over a store with no frozen snapshot yet: the front
// answers 503 until a crawl commits round 0, and every replica then
// takes round 1 by applying its delta on the -refresh ticker.
func TestServeReplicasStartUnreadyAndRefreshByDelta(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	client := &http.Client{Transport: &http.Transport{}}
	addr, stdout, cancel, done := startServer(t, "serving ", "serve", "-store", dir, "-addr", "127.0.0.1:0", "-replicas", "2", "-refresh", "50ms")
	resp, err := client.Get("http://" + addr + "/api/snapshot/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("before any snapshot: %d Retry-After=%q, want 503 with Retry-After", resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	ctx := context.Background()
	p, err := crowdscope.NewPipeline(crowdscope.PipelineConfig{Seed: 7, Scale: 0.003, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Crawl(ctx, 0); err != nil {
		t.Fatal(err)
	}
	waitReady(t, client, addr)
	p.AdvanceDays(7)
	if _, err := p.Crawl(ctx, 1); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 2; i++ {
		replica := strings.TrimPrefix(lastField(stdout, fmt.Sprintf("replica-%d serving on ", i)), "http://")
		if replica == "" {
			t.Fatalf("no replica-%d line in stdout:\n%s", i, stdout)
		}
		deadline := time.Now().Add(30 * time.Second)
		for {
			var st struct {
				Snapshot       int   `json:"snapshot"`
				DeltaRefreshes int64 `json:"delta_refreshes"`
			}
			_, body := get(t, client, replica, "/statusz")
			if err := json.Unmarshal([]byte(body), &st); err != nil {
				t.Fatalf("replica-%d /statusz: %v: %s", i, err, body)
			}
			if st.Snapshot == 1 && st.DeltaRefreshes >= 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("replica-%d never refreshed to snapshot 1 by delta: %s", i, body)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	stopServer(t, client, addr, cancel, done)
}

// TestServeLogsEmptyStoreRefreshOnce: a replica over a store with no
// snapshot yet fails every -refresh tick with the same error, and logs
// it once, not once a tick.
func TestServeLogsEmptyStoreRefreshOnce(t *testing.T) {
	leakcheck.Check(t)
	var logs lockedBuffer
	prev := log.Writer()
	log.SetOutput(&logs)
	defer log.SetOutput(prev)
	client := &http.Client{Transport: &http.Transport{}}
	addr, _, cancel, done := startServer(t, "serving ", "serve", "-store", t.TempDir(), "-addr", "127.0.0.1:0", "-replicas", "2", "-refresh", "10ms")
	time.Sleep(300 * time.Millisecond) // about 30 ticks
	stopServer(t, client, addr, cancel, done)
	out := logs.String()
	for i := 0; i < 2; i++ {
		n := 0
		for _, line := range strings.Split(out, "\n") {
			if strings.Contains(line, fmt.Sprintf("replica-%d: ", i)) && strings.Contains(line, "no frozen snapshots") {
				n++
			}
		}
		if n != 1 {
			t.Errorf("replica-%d logged the empty store %d times, want once:\n%s", i, n, out)
		}
	}
	if strings.Contains(out, "refresh: serve: refresh:") {
		t.Errorf("log doubles the refresh prefix:\n%s", out)
	}
}

// TestServeUntilDoneWaitsForInFlight pins the drain contract of serve,
// whatever its replica count: after ctx is cancelled the helper returns
// only once the request already in flight has been answered in full.
func TestServeUntilDoneWaitsForInFlight(t *testing.T) {
	leakcheck.Check(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		io.WriteString(w, "finished")
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	drainBegun := make(chan struct{})
	returned := make(chan error, 1)
	go func() {
		returned <- serveUntilDone(ctx, ln, h, 30*time.Second, func() { close(drainBegun) })
	}()
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	answered := make(chan string, 1)
	go func() {
		resp, err := client.Get("http://" + ln.Addr().String())
		if err != nil {
			answered <- err.Error()
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		answered <- fmt.Sprint(resp.StatusCode, " ", string(body), err)
	}()
	<-entered
	cancel()
	<-drainBegun
	select {
	case err := <-returned:
		t.Fatalf("returned (%v) with a request in flight", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if got := <-answered; got != "200 finished<nil>" {
		t.Errorf("in-flight request got %q", got)
	}
	if err := <-returned; err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadInvocations(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "usage: crowdscope"},
		{[]string{"fleet"}, `unknown command "fleet"`},
		{[]string{"crawl"}, "-store is required"},
		{[]string{"query"}, "-store is required"},
		{[]string{"serve"}, "-store is required"},
		{[]string{"serve", "-store", t.TempDir(), "-replicas", "0"}, "-replicas must be at least 1"},
		{[]string{"analyze", "-layout", "spiral"}, `unknown layout "spiral"`},
		{[]string{"analyze", "-exp", "e99"}, `unknown experiment "e99" (want one of e1, fig3,`},
		{[]string{"gen", "-no-such-flag"}, "flag provided but not defined"},
	} {
		err := run(context.Background(), tc.args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%q) = %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
	if err := run(context.Background(), []string{"scale", "-h"}, io.Discard); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("scale -h = %v, want flag.ErrHelp", err)
	}
}

// TestFlagsGolden pins the command-line surface: every subcommand's
// flags with their types and defaults, as "<command> -h" prints them.
// A new flag, or a changed default, is a diff against the golden.
func TestFlagsGolden(t *testing.T) {
	names := make([]string, 0, len(commands))
	for name := range commands {
		names = append(names, name)
	}
	sort.Strings(names)
	// "  -name type" starts a flag; its usage line may end "(default v)".
	defaultRE := regexp.MustCompile(`\(default (.*)\)$`)
	var got strings.Builder
	for _, name := range names {
		line := ""
		for _, l := range strings.Split(helpOutput(t, name), "\n") {
			switch {
			case strings.HasPrefix(l, "  -"):
				if line != "" {
					got.WriteString(line + "\n")
				}
				line = name + " " + strings.TrimSpace(l)
			case line != "" && defaultRE.MatchString(l):
				line += " = " + defaultRE.FindStringSubmatch(l)[1]
			}
		}
		if line != "" {
			got.WriteString(line + "\n")
		}
	}
	assertSame(t, "flags", got.String(), golden(t, "flags.golden"))
}

// helpOutput returns what "crowdscope <cmd> -h" writes to stderr.
func helpOutput(t *testing.T, cmd string) string {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stderr := os.Stderr
	os.Stderr = f
	err = run(context.Background(), []string{cmd, "-h"}, io.Discard)
	os.Stderr = stderr
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("%s -h = %v, want flag.ErrHelp", cmd, err)
	}
	raw, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}
