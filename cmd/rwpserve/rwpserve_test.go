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
	for _, shards := range []string{"1", "4", "16"} {
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
		"seed", "selftest", "selftest-skip", "sets", "shards", "snap-every",
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

func TestRunFlagErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"bad flag", []string{"-nope"}, 2},
		{"positional args", []string{"extra"}, 2},
		{"bad policy", []string{"-selftest", "10", "-policy", "bogus"}, 2},
		{"bad geometry", []string{"-selftest", "10", "-sets", "100"}, 2},
		{"too many ways", []string{"-selftest", "10", "-ways", "300"}, 2},
		{"bad profile", []string{"-selftest", "10", "-profile", "nope"}, 2},
		{"bad transport", []string{"-selftest", "10", "-transport", "carrier-pigeon"}, 2},
		{"http transport", []string{"-selftest", "10", "-transport", "http"}, 2},
	} {
		var out, errbuf bytes.Buffer
		if code := run(context.Background(), tc.args, &out, &errbuf); code != tc.want {
			t.Errorf("%s: run = %d, want %d (stderr: %s)", tc.name, code, tc.want, errbuf.String())
		}
	}
}
