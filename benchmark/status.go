package main

import (
	"encoding/json"
	"fmt"
)

// statusSnap is the part of /api/status the ledger reads. Sections a
// deployment mode lacks (columnPool and ingest in cluster mode, wire and
// cluster in-process) decode to zero values, which is exactly what the
// "all wire.* are 0 in-process" assertion wants to see.
type statusSnap struct {
	Cache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"computationCache"`
	Engine struct {
		Replays  int64 `json:"replays"`
		Partials int64 `json:"partialsEmitted"`
	} `json:"engine"`
	HTTP struct {
		Requests int64 `json:"requests"`
	} `json:"http"`
	Serve struct {
		Admitted     int64 `json:"admitted"`
		Shed         int64 `json:"shed"`
		DedupJoins   int64 `json:"dedup_joins"`
		Execs        int64 `json:"execs"`
		BatchMembers int64 `json:"batch_members"`
		ScansSaved   int64 `json:"scans_saved"`
	} `json:"serve"`
	Pool struct {
		Resident  int64 `json:"residentBytes"`
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Evictions int64 `json:"evictions"`
	} `json:"columnPool"`
	Wire []struct {
		BytesIn  int64 `json:"bytesIn"`
		BytesOut int64 `json:"bytesOut"`
		FramesIn int64 `json:"framesIn"`
		EncodeNs int64 `json:"encodeNs"`
		DecodeNs int64 `json:"decodeNs"`
	} `json:"wire"`
	Cluster struct {
		Retries      int64 `json:"retries"`
		SpecLaunches int64 `json:"specLaunches"`
	} `json:"cluster"`
	Ingest struct {
		Appends  int64 `json:"appends"`
		Seals    int64 `json:"seals"`
		Datasets map[string]struct {
			Generation int64 `json:"generation"`
		} `json:"datasets"`
	} `json:"ingest"`
}

func parseStatus(b []byte) (statusSnap, error) {
	var s statusSnap
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("parse /api/status: %w", err)
	}
	return s, nil
}

// statusDelta is what one section of a run added to the server's
// counters (gauges — resident bytes — are taken from the later snapshot).
type statusDelta struct {
	CacheHits, CacheMisses, Replays, Partials           int64
	HTTPRequests                                        int64
	Admitted, Shed, DedupJoins, Execs                   int64
	BatchMembers, ScansSaved                            int64
	PoolHits, PoolMisses, PoolEvictions, PoolResident   int64
	WireIn, WireOut, WireFramesIn, WireEncNs, WireDecNs int64
	Retries, SpecLaunches                               int64
	Appends, Seals, GenerationBumps                     int64
}

func (s statusSnap) wireSum() (in, out, frames, enc, dec int64) {
	for _, w := range s.Wire {
		in += w.BytesIn
		out += w.BytesOut
		frames += w.FramesIn
		enc += w.EncodeNs
		dec += w.DecodeNs
	}
	return
}

func (s statusSnap) generations() int64 {
	var g int64
	for _, d := range s.Ingest.Datasets {
		g += d.Generation
	}
	return g
}

// sub returns after − before.
func (after statusSnap) sub(before statusSnap) statusDelta {
	ai, ao, af, ae, ad := after.wireSum()
	bi, bo, bf, be, bd := before.wireSum()
	return statusDelta{
		CacheHits:       after.Cache.Hits - before.Cache.Hits,
		CacheMisses:     after.Cache.Misses - before.Cache.Misses,
		Replays:         after.Engine.Replays - before.Engine.Replays,
		Partials:        after.Engine.Partials - before.Engine.Partials,
		HTTPRequests:    after.HTTP.Requests - before.HTTP.Requests,
		Admitted:        after.Serve.Admitted - before.Serve.Admitted,
		Shed:            after.Serve.Shed - before.Serve.Shed,
		DedupJoins:      after.Serve.DedupJoins - before.Serve.DedupJoins,
		Execs:           after.Serve.Execs - before.Serve.Execs,
		BatchMembers:    after.Serve.BatchMembers - before.Serve.BatchMembers,
		ScansSaved:      after.Serve.ScansSaved - before.Serve.ScansSaved,
		PoolHits:        after.Pool.Hits - before.Pool.Hits,
		PoolMisses:      after.Pool.Misses - before.Pool.Misses,
		PoolEvictions:   after.Pool.Evictions - before.Pool.Evictions,
		PoolResident:    after.Pool.Resident,
		WireIn:          ai - bi,
		WireOut:         ao - bo,
		WireFramesIn:    af - bf,
		WireEncNs:       ae - be,
		WireDecNs:       ad - bd,
		Retries:         after.Cluster.Retries - before.Cluster.Retries,
		SpecLaunches:    after.Cluster.SpecLaunches - before.Cluster.SpecLaunches,
		Appends:         after.Ingest.Appends - before.Ingest.Appends,
		Seals:           after.Ingest.Seals - before.Ingest.Seals,
		GenerationBumps: after.generations() - before.generations(),
	}
}
