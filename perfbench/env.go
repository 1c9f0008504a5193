package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/httpapi"
	"repro/internal/pg"
	"repro/internal/pgrdf"
	"repro/internal/repl"
	"repro/internal/store"
	"repro/internal/twitter"
	"repro/internal/wal"
)

// serveIndexes is the index set `pgrdf serve` creates by default.
var serveIndexes = []string{"PCSGM", "PSCGM", "SPCGM", "GSPCM"}

// prefixOf is the model prefix a scheme's partitions are loaded under.
func prefixOf(s pgrdf.Scheme) string { return strings.ToLower(s.String()) }

// envSpec is what a workload needs from set-up.
type envSpec struct {
	schemes  []pgrdf.Scheme
	wal      bool
	sync     wal.SyncPolicy
	follower bool
}

// env is one set-up: a loaded store behind the same httpapi.Server that
// `pgrdf serve` mounts, listening on loopback, plus the WAL and the
// follower when the workload asks for them.
type env struct {
	spec     envSpec
	st       *store.Store
	srv      *httpapi.Server
	hs       *http.Server
	url      string
	dir      string
	log      *wal.Log
	follower *repl.Follower
	stopRepl context.CancelFunc
	replDone chan struct{}
	setup    time.Duration
	phases   map[string]time.Duration
	// quads and storageMB describe the store as loaded. They are read at
	// set-up because a wedged store cannot be asked later.
	quads     int
	storageMB float64
	// wedged marks a server that stopped answering: close then only
	// drops the listener and connections, since draining or closing the
	// log could block on the stuck requests.
	wedged bool
}

// setupEnv generates the graph, converts and loads it, seeds the WAL,
// starts the server and bootstraps the follower. The time from entry
// until the server can answer is env.setup. wrap, when set, wraps the
// server's handler (the traced run records a span around ServeHTTP).
// The generated graph is returned for the caller's oracles.
func setupEnv(cfg twitter.Config, spec envSpec, dataDir string, wrap func(http.Handler) http.Handler) (*env, *pg.Graph, error) {
	t0 := time.Now()
	e := &env{spec: spec, dir: dataDir, phases: map[string]time.Duration{}}
	phase := func(name string, start time.Time) { e.phases[name] += time.Since(start) }

	start := time.Now()
	g := twitter.Generate(cfg)
	phase("twitter.generate", start)

	datasets := make([]*pgrdf.Dataset, len(spec.schemes))
	start = time.Now()
	for i, s := range spec.schemes {
		conv := &pgrdf.Converter{Scheme: s, Vocab: bench.Vocab(), Opts: pgrdf.DefaultOptions()}
		datasets[i] = conv.Convert(g)
	}
	phase("pgrdf.convert", start)

	if spec.wal {
		// Open the empty directory first, as `pgrdf serve -data-dir`
		// does, then replace its empty store with the loaded one.
		start = time.Now()
		var err error
		_, e.log, err = wal.Open(dataDir, wal.Options{Sync: spec.sync, Indexes: serveIndexes})
		if err != nil {
			return nil, nil, err
		}
		phase("wal.open", start)
	}
	start = time.Now()
	st, err := store.NewWithIndexes(serveIndexes)
	if err != nil {
		e.close()
		return nil, nil, err
	}
	for i, s := range spec.schemes {
		if _, err := pgrdf.LoadPartitioned(st, datasets[i], prefixOf(s)); err != nil {
			e.close()
			return nil, nil, err
		}
		datasets[i] = nil
	}
	e.st = st
	phase("store.load", start)
	e.quads, e.storageMB = st.Len(), st.Storage().TotalMB()

	if e.log != nil {
		start = time.Now()
		if err := e.log.Checkpoint(st); err != nil {
			e.close()
			return nil, nil, fmt.Errorf("seed checkpoint: %w", err)
		}
		phase("wal.seed_checkpoint", start)
	}

	e.srv = httpapi.NewServerWithConfig(st, httpapi.DefaultConfig())
	if e.log != nil {
		e.srv.AttachWAL(e.log)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, nil, err
	}
	var h http.Handler = e.srv
	if wrap != nil {
		h = wrap(h)
	}
	e.hs = &http.Server{Handler: h}
	e.url = "http://" + ln.Addr().String()
	go e.hs.Serve(ln) //nolint — returns http.ErrServerClosed once close runs

	if spec.follower {
		start = time.Now()
		if err := e.startFollower(); err != nil {
			e.close()
			return nil, nil, err
		}
		phase("repl.bootstrap", start)
	}
	e.setup = time.Since(t0)
	return e, g, nil
}

// startFollower runs an in-process repl.Follower against the leader and
// waits for its bootstrap.
func (e *env) startFollower() error {
	ctx, cancel := context.WithCancel(context.Background())
	e.follower = repl.New(repl.Options{Leader: e.url, PollWait: 200 * time.Millisecond})
	e.stopRepl = cancel
	e.replDone = make(chan struct{})
	go func() {
		defer close(e.replDone)
		e.follower.Run(ctx) //nolint — returns ctx.Err once stopFollower cancels
	}()
	wctx, wcancel := context.WithTimeout(ctx, 60*time.Second)
	defer wcancel()
	if _, err := e.follower.WaitReady(wctx); err != nil {
		return fmt.Errorf("follower bootstrap: %w", err)
	}
	return nil
}

// stopFollower cancels the replication loop and waits for it to exit.
func (e *env) stopFollower() {
	if e.stopRepl != nil {
		e.stopRepl()
		<-e.replDone
		e.stopRepl = nil
	}
}

// closeServer drains in-flight requests (bounded) and closes the
// listener and connections. A wedged handler cannot be waited for; its
// goroutine is left behind and ends with the process.
func (e *env) closeServer(wedged bool) {
	if e.hs == nil {
		return
	}
	if !wedged {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		e.srv.Drain(ctx) //nolint — a timeout only means a request outlived the drain window
		cancel()
	}
	e.hs.Close()
	e.hs = nil
}

// close releases everything the set-up holds. The WAL directory stays
// for the caller (write-durable reopens it to time recovery).
func (e *env) close() {
	e.stopFollower()
	e.closeServer(e.wedged)
	if e.wedged {
		return
	}
	if e.log != nil {
		e.log.Close() //nolint — the directory is discarded or reopened by the caller
		e.log = nil
	}
}

// dataset is what the op generators and correctness checks need from
// the generated graph, so the graph itself can be dropped.
type dataset struct {
	// tag is the "#webseries" analogue: the tag whose node count is
	// closest to the paper's 251 of 76,245 nodes, scaled.
	tag string
	// start is the EQ11 start vertex IRI: follows-out-degree closest to
	// the paper's 21, ties to the lower ID.
	start string
	// vertices lists every vertex with its tags, in ID order.
	vertices []vertexInfo
	// nextEdge is the first edge ID the generator did not use.
	nextEdge int64
	// triangles is pg.Graph.CountTriangles("follows") (the EQ12 oracle);
	// components is pg.Graph.ConnectedComponents' count (the WCC oracle).
	triangles  int64
	components int
}

type vertexInfo struct {
	id   int64
	tags []string
}

func describe(g *pg.Graph, scale float64, withOracles bool) *dataset {
	d := &dataset{}
	counts := map[string]int{}
	g.Vertices(func(v *pg.Vertex) bool {
		vi := vertexInfo{id: int64(v.ID)}
		for _, val := range v.Values("hasTag") {
			vi.tags = append(vi.tags, val.Str)
			counts[val.Str]++
		}
		d.vertices = append(d.vertices, vi)
		return true
	})
	sort.Slice(d.vertices, func(i, j int) bool { return d.vertices[i].id < d.vertices[j].id })
	d.start = bench.Vocab().VertexIRI(pickStart(g, d.vertices, eq11eWalks*scale/defaultScale)).Value

	target := max(3, 251*g.NumVertices()/76245)
	bestDiff := -1
	for tag, n := range counts {
		diff := abs(n - target)
		if bestDiff < 0 || diff < bestDiff || (diff == bestDiff && tag < d.tag) {
			d.tag, bestDiff = tag, diff
		}
	}
	g.Edges(func(e *pg.Edge) bool {
		d.nextEdge = max(d.nextEdge, int64(e.ID)+1)
		return true
	})
	if withOracles {
		d.triangles = g.CountTriangles("follows")
		_, d.components = g.ConnectedComponents()
	}
	return d
}

// pickStart chooses the EQ11 start vertex. Like the paper's, it follows
// about 21 vertices (the closest out-degree to 21 present, within 2);
// among those it takes the one whose 5-hop walk count — EQ11e's answer
// and the bulk of its cost — is closest to walkTarget, ties to the
// lower ID. A fixed target keeps EQ11e's cost steady from seed to seed,
// where an arbitrary candidate would swing it by a factor of two.
func pickStart(g *pg.Graph, vs []vertexInfo, walkTarget float64) pg.ID {
	out := map[pg.ID][]pg.ID{}
	g.Edges(func(e *pg.Edge) bool {
		if e.Label == "follows" {
			out[e.Src] = append(out[e.Src], e.Dst)
		}
		return true
	})
	walks := map[pg.ID]float64{}
	for _, v := range vs {
		walks[pg.ID(v.id)] = 1
	}
	for k := 0; k < 5; k++ {
		next := make(map[pg.ID]float64, len(walks))
		for _, v := range vs {
			var n float64
			for _, u := range out[pg.ID(v.id)] {
				n += walks[u]
			}
			next[pg.ID(v.id)] = n
		}
		walks = next
	}
	best := -1
	for _, v := range vs {
		if dd := abs(len(out[pg.ID(v.id)]) - 21); best < 0 || dd < best {
			best = dd
		}
	}
	var cands []pg.ID
	for _, v := range vs {
		if abs(len(out[pg.ID(v.id)])-21) <= best+2 {
			cands = append(cands, pg.ID(v.id))
		}
	}
	pick := cands[0]
	for _, c := range cands[1:] {
		dc, dp := math.Abs(walks[c]-walkTarget), math.Abs(walks[pick]-walkTarget)
		if dc < dp || (dc == dp && c < pick) {
			pick = c
		}
	}
	return pick
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// setupRepeated sets up `times` environments, keeping the last and
// closing the others, and returns it with the median set-up time. The
// repeats make setup_s a median, so one slow set-up does not decide it.
func setupRepeated(times int, cfg twitter.Config, spec envSpec, dirFor func(int) string,
	wrap func(http.Handler) http.Handler) (*env, *pg.Graph, []float64, error) {
	var secs []float64
	for i := 0; i < times; i++ {
		e, g, err := setupEnv(cfg, spec, dirFor(i), wrap)
		if err != nil {
			return nil, nil, nil, err
		}
		secs = append(secs, e.setup.Seconds())
		if i == times-1 {
			return e, g, secs, nil
		}
		e.close()
		if e.dir != "" {
			if err := os.RemoveAll(e.dir); err != nil {
				return nil, nil, nil, err
			}
		}
	}
	return nil, nil, nil, errors.New("setupRepeated: times must be positive")
}

func itoa(x int64) string { return strconv.FormatInt(x, 10) }
