package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"rwp/internal/live"
	"rwp/internal/live/loadgen"
)

// TestStatsEndpoint pins the operator surface: GET and HEAD /stats
// answer the document, every other method on it is refused, no other
// path is routed (data travels over -tcp only), and the server bounds
// what a stalled peer can hold.
func TestStatsEndpoint(t *testing.T) {
	c := diffCache(t)
	c.Put("a", []byte("v"))
	c.Get("a")
	hs := newStatsServer(c)
	if hs.ReadHeaderTimeout <= 0 || hs.ReadTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Errorf("stats server timeouts unset: header %v, read %v, idle %v",
			hs.ReadHeaderTimeout, hs.ReadTimeout, hs.IdleTimeout)
	}
	srv := httptest.NewServer(hs.Handler)
	defer srv.Close()
	for _, tc := range []struct {
		method, path string
		want         int
	}{
		{http.MethodGet, "/stats", http.StatusOK},
		{http.MethodHead, "/stats", http.StatusOK},
		{http.MethodPost, "/stats", http.StatusMethodNotAllowed},
		{http.MethodPut, "/stats", http.StatusMethodNotAllowed},
		{http.MethodDelete, "/stats", http.StatusMethodNotAllowed},
		{http.MethodGet, "/", http.StatusNotFound},
		{http.MethodGet, "/stats/x", http.StatusNotFound},
		{http.MethodGet, "/get?key=a", http.StatusNotFound},
		{http.MethodPut, "/put?key=a", http.StatusNotFound},
	} {
		req, _ := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader("v2"))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
		}
		if tc.method == http.MethodGet && tc.want == http.StatusOK {
			if want, _ := c.StatsJSON(); !bytes.Equal(body, want) {
				t.Errorf("GET /stats body differs from StatsJSON:\n%s\nvs\n%s", body, want)
			}
		}
	}
	if s := c.Stats(); s.Gets != 1 || s.Puts != 1 {
		t.Errorf("the read-only endpoint moved the counters: gets %d, puts %d, want 1, 1", s.Gets, s.Puts)
	}
}

// TestSelftestUnderDefenses: the -selftest JSON shows retargets and the
// partition hit splits, and is byte-identical across repeated runs with
// the stampede defenses on or off. Fill coalescing collapses only
// concurrent misses, so a single-goroutine run with -coalesce prints the
// undefended bytes; negative caching changes an adversarial scan's run —
// that is its job — but the same way every time, since a verdict
// expires on its set's op-count clock.
func TestSelftestUnderDefenses(t *testing.T) {
	out := func(extra ...string) string {
		var buf, errbuf bytes.Buffer
		args := append([]string{"-selftest", "5000", "-sets", "128", "-ways", "4",
			"-interval", "32", "-profile", "mcf"}, extra...)
		if code := run(context.Background(), args, &buf, &errbuf); code != 0 {
			t.Fatalf("run(%v) = %d, stderr: %s", args, code, errbuf.String())
		}
		return buf.String()
	}
	base := out()
	if !strings.Contains(base, "\"Retargets\"") || strings.Contains(base, "\"Retargets\": 0,") {
		t.Fatalf("selftest output shows no retargets:\n%s", base)
	}
	for _, split := range []string{"GetHitsClean", "GetHitsDirty", "PutHitsClean", "PutHitsDirty"} {
		if !strings.Contains(base, "\""+split+"\": ") {
			t.Errorf("selftest output has no partition hit split %s:\n%s", split, base)
		}
	}
	if got := out(); got != base {
		t.Errorf("selftest output differs across identical runs:\n%s\nvs base:\n%s", got, base)
	}
	if got := out("-coalesce", "-lease-ops", "64"); got != base {
		t.Errorf("-coalesce -lease-ops 64 perturbed the selftest:\n%s\nvs base:\n%s", got, base)
	}

	scan := []string{"-profile", loadgen.AdvScan, "-coalesce", "-neg-ops", "64"}
	neg := out(scan...)
	if strings.Contains(neg, "\"NegInserts\": 0,") || !strings.Contains(neg, "\"NegInserts\"") {
		t.Errorf("%v recorded no absence verdicts:\n%s", scan, neg)
	}
	if got := out(scan...); got != neg {
		t.Errorf("%v output differs across identical runs:\n%s\nvs\n%s", scan, got, neg)
	}
}

// TestSelftestMatchesLibraryRun: the -selftest document is the one a
// cache built from live.DefaultConfig at the flags' geometry, with
// loadgen's absent-keyspace backing store, prints after loadgen.Run of
// the same stream. rwpcluster's TestSelftestMatchesSingleNode holds the
// merged cluster document to the same construction, at the same
// geometry, so the two binaries print the same bytes — adv:scan, the
// profile whose keys the backing store does not have, included.
func TestSelftestMatchesLibraryRun(t *testing.T) {
	for _, profile := range []string{"mcf", loadgen.AdvScan} {
		got, errb, code := runCLI(t, "-selftest", "8000", "-sets", "256", "-ways", "4",
			"-interval", "16", "-profile", profile)
		if code != 0 {
			t.Fatalf("%s: run = %d, stderr: %s", profile, code, errb)
		}

		cfg := live.DefaultConfig()
		cfg.Sets, cfg.Ways = 256, 4
		cfg.RWP.Interval = 16
		cfg.Loader = loadgen.AbsentLoader(0)
		c, err := live.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		g, err := loadgen.NewStream(profile, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		loadgen.Run(c, g, 8000)
		want, err := c.StatsJSON()
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s: rwpserve -selftest differs from the library run:\n%s\nvs\n%s", profile, got, want)
		}
	}
}

// TestSelftestTransportInvariance: the -selftest JSON is byte-identical
// across -transport values through the real flag surface.
func TestSelftestTransportInvariance(t *testing.T) {
	out := func(transport string) string {
		var buf, errbuf bytes.Buffer
		args := []string{"-selftest", "2000", "-sets", "64", "-ways", "4",
			"-profile", "mcf", "-transport", transport, "-batch", "16", "-pipeline", "4"}
		if code := run(context.Background(), args, &buf, &errbuf); code != 0 {
			t.Fatalf("run(transport=%s) = %d, stderr: %s", transport, code, errbuf.String())
		}
		return buf.String()
	}
	base := out("direct")
	if got := out("tcp"); got != base {
		t.Errorf("selftest output differs for transport=tcp:\n%s\nvs base:\n%s", got, base)
	}
}

// TestFlagSurface pins the CLI's flag set against a golden list, so a
// flag added or resurrected shows up as a test diff (and ROADMAP's flag
// count is this list's length, not a hand count). No name contains
// "bench": bench/ is the one measuring instrument.
func TestFlagSurface(t *testing.T) {
	want := []string{
		"addr", "batch", "coalesce", "in", "interval", "lease-ops", "neg-ops",
		"no-loader", "pipeline", "policy", "profile", "record", "restore",
		"seed", "selftest", "selftest-skip", "sets", "snap-every",
		"snapshot", "tcp", "transport", "value-size", "ways",
	}
	var out, errbuf bytes.Buffer
	if code := run(context.Background(), []string{"-h"}, &out, &errbuf); code != 2 {
		t.Fatalf("run(-h) = %d, want 2", code)
	}
	var got []string
	for _, line := range strings.Split(errbuf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "  -"); ok {
			got = append(got, strings.Fields(rest)[0])
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("rwpserve -h lists %d flags:\n%q\nwant %d:\n%q", len(got), got, len(want), want)
	}
}

// TestRunFlagErrors pins the usage errors: the exit code, and where a
// row names one, the text stderr must carry.
func TestRunFlagErrors(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		want   int
		stderr string
	}{
		{"bad flag", []string{"-nope"}, 2, ""},
		{"positional args", []string{"extra"}, 2, ""},
		{"bad policy", []string{"-selftest", "10", "-policy", "bogus"}, 2, ""},
		{"bad geometry", []string{"-selftest", "10", "-sets", "100"}, 2, ""},
		{"too many ways", []string{"-selftest", "10", "-ways", "300"}, 2, ""},
		{"bad profile", []string{"-selftest", "10", "-profile", "nope"}, 2, ""},
		{"bad transport", []string{"-selftest", "10", "-transport", "carrier-pigeon"}, 2, ""},
		{"http transport", []string{"-selftest", "10", "-transport", "http"}, 2, ""},
	} {
		var out, errbuf bytes.Buffer
		if code := run(context.Background(), tc.args, &out, &errbuf); code != tc.want {
			t.Errorf("%s: run = %d, want %d (stderr: %s)", tc.name, code, tc.want, errbuf.String())
		}
		if !strings.Contains(errbuf.String(), tc.stderr) {
			t.Errorf("%s: stderr does not name %q: %s", tc.name, tc.stderr, errbuf.String())
		}
	}
}
