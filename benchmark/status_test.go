package main

import (
	"os"
	"path/filepath"
	"testing"
)

func readStatus(t *testing.T, name string) statusSnap {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	s, err := parseStatus(b)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// The fixtures are /api/status bodies of the three deployment modes (the
// "before" ones captured from the real server, the "after" ones edited
// by hand), so a renamed JSON key shows up here and not as a silent zero
// in the ledger.
func TestStatusDelta(t *testing.T) {
	cases := []struct {
		name string
		want statusDelta
	}{
		{"inproc", statusDelta{
			CacheHits: 100, CacheMisses: 50, Replays: 1, Partials: 100, HTTPRequests: 100,
			Admitted: 200, Shed: 2, DedupJoins: 4, Execs: 194, BatchMembers: 12, ScansSaved: 7,
			PoolHits: 1000, PoolMisses: 5, PoolEvictions: 3, PoolResident: 136871999,
		}},
		{"cluster", statusDelta{
			CacheHits: 10, CacheMisses: 20, Partials: 50, HTTPRequests: 10, Admitted: 30, Execs: 30,
			WireIn: 20000, WireOut: 2000, WireFramesIn: 200, WireEncNs: 200000, WireDecNs: 2000000,
			Retries: 2, SpecLaunches: 1,
		}},
		{"ingest", statusDelta{
			CacheHits: 18, CacheMisses: 27, Replays: 4, Partials: 27, HTTPRequests: 270,
			Admitted: 297, Execs: 287, Appends: 250, Seals: 10, GenerationBumps: 260,
		}},
	}
	for _, c := range cases {
		got := readStatus(t, "status_"+c.name+"_after.json").sub(readStatus(t, "status_"+c.name+"_before.json"))
		if got != c.want {
			t.Errorf("%s delta:\n got %+v\nwant %+v", c.name, got, c.want)
		}
	}
}

func TestParseStatusRejectsGarbage(t *testing.T) {
	if _, err := parseStatus([]byte("<html>")); err == nil {
		t.Error("non-JSON status must be an error")
	}
}

func TestParseProc(t *testing.T) {
	// Field 2 may hold spaces and parentheses; utime=1234 stime=766 ticks.
	stat := []byte("4242 (hill view) w) S 1 4242 4242 0 -1 4194560 900 0 0 0 1234 766 0 0 20 0 9 0 100 1 2 3\n")
	ms, err := parseProcStat(stat)
	if err != nil || ms != 20000 {
		t.Errorf("parseProcStat = %v, %v; want 20000 ms", ms, err)
	}
	if _, err := parseProcStat([]byte("garbage")); err == nil {
		t.Error("stat without a command field must be an error")
	}
	status := []byte("Name:\thillview\nVmPeak:\t  999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t  102400 kB\n")
	for key, want := range map[string]float64{"VmHWM": 200, "VmRSS": 100} {
		got, err := parseProcStatusMB(status, key)
		if err != nil || got != want {
			t.Errorf("parseProcStatusMB(%s) = %v, %v; want %v", key, got, err, want)
		}
	}
	if _, err := parseProcStatusMB(status, "VmSwap"); err == nil {
		t.Error("a missing key must be an error")
	}
}
