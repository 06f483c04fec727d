package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"rwp/internal/live"
	"rwp/internal/live/drive"
	"rwp/internal/live/loadgen"
)

func testCache(t *testing.T, loader bool) *live.Cache {
	t.Helper()
	cfg := live.DefaultConfig()
	cfg.Sets, cfg.Ways, cfg.Shards = 64, 4, 4
	cfg.Record = true
	if loader {
		cfg.Loader = loadgen.Loader(8)
	}
	c, err := live.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestHandlerPutGetStats(t *testing.T) {
	srv := httptest.NewServer(drive.Handler(testCache(t, false)))
	defer srv.Close()

	// Miss without a loader: 404.
	resp, err := http.Get(srv.URL + "/get?key=a")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("miss: status %d, X-Cache %q", resp.StatusCode, resp.Header.Get("X-Cache"))
	}

	// Insert, then overwrite.
	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/put?key=a", strings.NewReader("v1"))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent || resp.Header.Get("X-Cache") != "insert" {
		t.Fatalf("insert: status %d, X-Cache %q", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	resp, err = http.Post(srv.URL+"/put?key=a", "application/octet-stream", strings.NewReader("v2"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Cache") != "overwrite" {
		t.Fatalf("overwrite: X-Cache %q", resp.Header.Get("X-Cache"))
	}

	// Hit returns the latest value.
	resp, err = http.Get(srv.URL + "/get?key=a")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" || string(body) != "v2" {
		t.Fatalf("hit: status %d, X-Cache %q, body %q", resp.StatusCode, resp.Header.Get("X-Cache"), body)
	}

	// Stats reflect the traffic.
	resp, err = http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var p live.StatsPayload
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if p.Policy != "rwp" || p.Capacity != 256 {
		t.Errorf("payload config: %+v", p)
	}
	if p.Stats.Gets != 2 || p.Stats.GetHits != 1 || p.Stats.Puts != 2 || p.Stats.PutInserts != 1 {
		t.Errorf("payload counters: %+v", p.Stats.Counters)
	}
	if p.Probe == nil || p.Probe.Store.Accesses != 2 {
		t.Errorf("payload probe section: %+v", p.Probe)
	}
}

func TestHandlerLoaderFill(t *testing.T) {
	srv := httptest.NewServer(drive.Handler(testCache(t, true)))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/get?key=zz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "fill" {
		t.Fatalf("fill: status %d, X-Cache %q", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	if want := loadgen.Value("zz", 8); !bytes.Equal(body, want) {
		t.Fatalf("fill body %x, want %x", body, want)
	}
	// Now resident.
	resp, err = http.Get(srv.URL + "/get?key=zz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("second get: X-Cache %q", resp.Header.Get("X-Cache"))
	}
}

func TestHandlerErrors(t *testing.T) {
	srv := httptest.NewServer(drive.Handler(testCache(t, false)))
	defer srv.Close()
	for _, tc := range []struct {
		method, path string
		want         int
	}{
		{http.MethodGet, "/get", http.StatusBadRequest},
		{http.MethodPut, "/put", http.StatusBadRequest},
		{http.MethodGet, "/put?key=a", http.StatusMethodNotAllowed},
	} {
		req, _ := http.NewRequest(tc.method, srv.URL+tc.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
		}
	}
}

// TestSelftestShardInvariance is the acceptance criterion in miniature:
// the -selftest JSON is byte-identical across repeated runs and across
// shard counts.
func TestSelftestShardInvariance(t *testing.T) {
	out := func(shards string) string {
		var buf, errbuf bytes.Buffer
		args := []string{"-selftest", "5000", "-sets", "128", "-ways", "4",
			"-interval", "32", "-profile", "mcf", "-shards", shards}
		if code := run(context.Background(), args, &buf, &errbuf); code != 0 {
			t.Fatalf("run(shards=%s) = %d, stderr: %s", shards, code, errbuf.String())
		}
		return buf.String()
	}
	base := out("1")
	if !strings.Contains(base, "\"Retargets\"") || strings.Contains(base, "\"Retargets\": 0,") {
		t.Fatalf("selftest output shows no retargets:\n%s", base)
	}
	for _, shards := range []string{"1", "4", "128"} {
		if got := out(shards); got != base {
			t.Errorf("selftest output differs for shards=%s:\n%s\nvs base:\n%s", shards, got, base)
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
	for _, transport := range []string{"http", "tcp"} {
		if got := out(transport); got != base {
			t.Errorf("selftest output differs for transport=%s:\n%s\nvs base:\n%s", transport, got, base)
		}
	}
}

// TestFlagSurface pins the CLI's flag set against a golden list, so a
// flag added or resurrected shows up as a test diff (and ROADMAP's flag
// count is this list's length, not a hand count). No name contains
// "bench": bench/ is the one measuring instrument.
func TestFlagSurface(t *testing.T) {
	want := []string{
		"addr", "batch", "coalesce", "interval", "lease-ops", "neg-ops",
		"no-loader", "pipeline", "policy", "probe", "profile", "record",
		"restore", "seed", "selftest", "selftest-skip", "sets", "shards",
		"snap-every", "snapshot", "tcp", "transport", "value-size", "ways",
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

func TestRunFlagErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"bad flag", []string{"-nope"}, 2},
		{"positional args", []string{"extra"}, 2},
		{"bad policy", []string{"-selftest", "10", "-policy", "fifo"}, 2},
		{"bad geometry", []string{"-selftest", "10", "-sets", "100"}, 2},
		{"bad profile", []string{"-selftest", "10", "-profile", "nope"}, 1},
		{"bad transport", []string{"-selftest", "10", "-transport", "carrier-pigeon"}, 2},
	} {
		var out, errbuf bytes.Buffer
		if code := run(context.Background(), tc.args, &out, &errbuf); code != tc.want {
			t.Errorf("%s: run = %d, want %d (stderr: %s)", tc.name, code, tc.want, errbuf.String())
		}
	}
}
