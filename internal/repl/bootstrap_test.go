package repl_test

// Deterministic bootstrap-corruption test: the leader's binary snapshot
// reaches the follower cut short (with and without a complete HTTP
// frame), with one flipped byte, or as a valid snapshot of a different
// store. The follower must adopt none of them, and must converge
// byte-identically once the wire heals.

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/repl"
	"repro/internal/store"
)

// brokenForm rewrites one leader snapshot body before it is served.
type brokenForm struct {
	name string
	// body maps the leader's real body to the bytes sent.
	body func(real []byte) []byte
	// dirty keeps the real Content-Length and drops the connection
	// after the short body, so the client sees an unexpected EOF.
	// Otherwise the rewritten body is framed as a complete response.
	dirty bool
}

// bootstrapObservation is the follower's state when a bootstrap
// request reached the leader: everything the previous attempt left.
type bootstrapObservation struct {
	form     string // the form served to the previous attempt
	adopted  bool   // Store() != nil
	status   repl.Status
	attempts int // bootstrap requests served before this one
}

// corruptingLeader serves forms in order to the follower's bootstrap
// requests, then passes everything through to the real leader.
type corruptingLeader struct {
	next  http.Handler
	forms []brokenForm

	mu   sync.Mutex
	f    *repl.Follower
	seen []bootstrapObservation
}

func (c *corruptingLeader) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/export" || r.URL.Query().Get("format") != "binary" {
		c.next.ServeHTTP(w, r)
		return
	}
	c.mu.Lock()
	n := len(c.seen)
	obs := bootstrapObservation{adopted: c.f.Store() != nil, status: c.f.Status(), attempts: n}
	if n > 0 && n <= len(c.forms) {
		obs.form = c.forms[n-1].name
	}
	c.seen = append(c.seen, obs)
	c.mu.Unlock()
	if n >= len(c.forms) {
		c.next.ServeHTTP(w, r) // healed
		return
	}
	form := c.forms[n]
	rec := httptest.NewRecorder()
	c.next.ServeHTTP(rec, r)
	real := rec.Body.Bytes()
	body := form.body(real)
	for k, vs := range rec.Header() {
		w.Header()[k] = vs
	}
	if form.dirty {
		w.Header().Set("Content-Length", strconv.Itoa(len(real)))
		w.WriteHeader(rec.Code)
		w.Write(body)
		if hj, ok := w.(http.Hijacker); ok {
			if conn, brw, err := hj.Hijack(); err == nil {
				brw.Flush()
				conn.Close()
			}
		}
		return
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(rec.Code)
	w.Write(body)
}

// sectionSpan is one frame of a binary snapshot: [start, end) covers
// type byte, length, payload and CRC.
type sectionSpan struct {
	typ        byte
	start, end int
}

// snapshotSections walks the frames of a binary snapshot (8-byte
// magic, then u8 type | u64le length | payload | u32 CRC per section).
func snapshotSections(t *testing.T, data []byte) []sectionSpan {
	t.Helper()
	var spans []sectionSpan
	for off := 8; off < len(data); {
		if len(data)-off < 13 {
			t.Fatalf("malformed snapshot frame at offset %d", off)
		}
		end := off + 13 + int(binary.LittleEndian.Uint64(data[off+1:off+9]))
		spans = append(spans, sectionSpan{typ: data[off], start: off, end: end})
		off = end
	}
	return spans
}

// Section type bytes of the binary snapshot format (store/binsnap.go).
const (
	secHeader  = 1
	secDict    = 2
	secIndex   = 5
	secTrailer = 0xFF
)

func TestBootstrapRejectsCorruptSnapshot(t *testing.T) {
	ld := startLeader(t, t.TempDir())
	defer ld.stop()
	var quads bytes.Buffer
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&quads, "<http://v/%d> <http://p/%d> \"val-%d\" . ", i, i%7, i)
	}
	postUpdate(t, ld.srv.URL, "INSERT DATA { "+quads.String()+"}")

	// The offsets are chosen on the body the leader serves: the store
	// does not change until the broken forms are used up.
	var real bytes.Buffer
	if err := ld.st.SnapshotBinary(&real); err != nil {
		t.Fatal(err)
	}
	spans := snapshotSections(t, real.Bytes())
	find := func(typ byte) sectionSpan {
		for _, s := range spans {
			if s.typ == typ {
				return s
			}
		}
		t.Fatalf("snapshot has no section of type %d", typ)
		return sectionSpan{}
	}
	hdr, dict, index, trailer := find(secHeader), find(secDict), find(secIndex), find(secTrailer)
	if trailer.end != real.Len() {
		t.Fatalf("trailer ends at %d, body is %d bytes", trailer.end, real.Len())
	}
	type offset struct {
		name string
		at   int
	}
	cuts := []offset{
		{"magic", 4},
		{"header frame", hdr.start + 5},
		{"header payload", hdr.start + 10},
		{"dict payload", (dict.start + dict.end) / 2},
		{"dict section end", dict.end},
		{"index frame", index.start + 1},
		{"index payload", (index.start + index.end) / 2},
		{"index crc", index.end - 2},
		{"before trailer", trailer.start}, // a clean cut at a section boundary
		{"trailer payload", trailer.start + 10},
		{"trailer last byte", trailer.end - 1},
	}
	flips := []offset{
		{"header payload", hdr.start + 9},
		{"dict payload", (dict.start + dict.end) / 2},
		{"index length", index.start + 2},
		{"index payload", (index.start + index.end) / 2},
		{"trailer crc", trailer.end - 1},
	}

	var forms []brokenForm
	for _, c := range cuts {
		cut := func(real []byte) []byte { return real[:c.at] }
		forms = append(forms,
			brokenForm{name: "cut/" + c.name, body: cut, dirty: true},
			brokenForm{name: "cut+reframed/" + c.name, body: cut})
	}
	for _, fl := range flips {
		forms = append(forms, brokenForm{name: "flip/" + fl.name, body: func(real []byte) []byte {
			out := append([]byte(nil), real...)
			out[fl.at] ^= 0x10
			return out
		}})
	}
	// A complete, valid snapshot of another store: only the quad-count
	// check against the leader's header can catch it.
	var empty bytes.Buffer
	if err := store.New().SnapshotBinary(&empty); err != nil {
		t.Fatal(err)
	}
	forms = append(forms, brokenForm{name: "wrong store", body: func([]byte) []byte { return empty.Bytes() }})

	cl := &corruptingLeader{next: ld.srv.Config.Handler, forms: forms}
	proxy := httptest.NewServer(cl)
	defer proxy.Close()
	f := repl.New(followerOpts(proxy.URL, t))
	cl.mu.Lock()
	cl.f = f
	cl.mu.Unlock()
	ctx, cancel := context.WithCancel(t.Context())
	done := make(chan struct{})
	go func() { defer close(done); f.Run(ctx) }()
	defer func() { cancel(); <-done }()
	if _, err := f.WaitReady(ctx); err != nil {
		t.Fatal(err)
	}

	cl.mu.Lock()
	seen := append([]bootstrapObservation(nil), cl.seen...)
	cl.mu.Unlock()
	if len(seen) != len(forms)+1 {
		t.Fatalf("leader served %d bootstrap requests, want %d broken + 1 healthy", len(seen), len(forms))
	}
	for _, o := range seen[1:] {
		if o.adopted || o.status.Bootstraps != 0 {
			t.Errorf("after %s: follower adopted the body (store set %t, bootstraps %d)", o.form, o.adopted, o.status.Bootstraps)
		}
		if o.status.RetryErrors != int64(o.attempts) {
			t.Errorf("after %s: retryErrors = %d, want %d", o.form, o.status.RetryErrors, o.attempts)
		}
	}

	// Healed: the follower bootstraps once and tails new commits.
	postUpdate(t, ld.srv.URL, `INSERT DATA { <http://v/after> <http://p/v> "healed" }`)
	waitConverged(t, f, ld.log, 10*time.Second)
	if !bytes.Equal(snapshotBytes(t, ld.st), snapshotBytes(t, f.Store())) {
		t.Fatal("follower snapshot differs from the leader's after healing")
	}
	if st := f.Status(); st.Bootstraps != 1 || st.RetryErrors < int64(len(forms)) {
		t.Fatalf("after healing: %+v, want 1 bootstrap and >= %d retried errors", st, len(forms))
	}
}
