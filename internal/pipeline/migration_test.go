package pipeline

import (
	"testing"
	"time"

	"videoplat/internal/fingerprint"
	"videoplat/internal/flowtable"
	"videoplat/internal/leakcheck"
	"videoplat/internal/tracegen"
)

// renderScenarioFlow renders one QUIC YouTube flow with the given options.
func renderScenarioFlow(t *testing.T, seed uint64, opts fingerprint.Options, midHandshake bool) *tracegen.FlowTrace {
	t.Helper()
	ft, err := tracegen.New(seed).Flow("android_chrome", fingerprint.YouTube, fingerprint.QUIC,
		tracegen.FlowSpec{Options: opts, MigrateMidHandshake: midHandshake, PayloadFrames: 3})
	if err != nil {
		t.Fatal(err)
	}
	return ft
}

func feedTrace(p *Pipeline, ft *tracegen.FlowTrace) {
	for _, fr := range ft.Frames {
		p.HandlePacket(ft.Start.Add(fr.Offset), fr.Data)
	}
}

// TestMigrationMidStreamSingleRecord pins the tentpole re-keying contract:
// a QUIC flow whose client tuple changes after the handshake stays ONE
// logical flow — one FlowRecord, its packets counted together, the
// migration visible in the counters, and no ghost flow under the new tuple.
func TestMigrationMidStreamSingleRecord(t *testing.T) {
	ft := renderScenarioFlow(t, 41, fingerprint.Options{Migration: true}, false)
	if !ft.Migrated {
		t.Fatal("trace did not migrate")
	}
	p := New(emptyBank())
	feedTrace(p, ft)

	recs := p.Flows()
	if len(recs) != 1 {
		t.Fatalf("tracked %d flow records, want 1 (migration must not spawn a ghost flow)", len(recs))
	}
	rec := recs[0]
	if rec.Key != ft.Key() {
		t.Errorf("record key = %v, want the original tuple %v", rec.Key, ft.Key())
	}
	if got := rec.PacketsUp + rec.PacketsDown; got != len(ft.Frames) {
		t.Errorf("record counted %d packets, want all %d (pre- and post-migration)", got, len(ft.Frames))
	}
	if st := p.TableStats(); st.Rekeyed != 1 || st.Inserted != 1 || st.Active != 1 {
		t.Errorf("table stats = %+v, want 1 rekey of 1 inserted flow", st)
	}
}

// TestMigrationMidHandshakeAssemblerSurvives pins the harder variant: the
// ClientHello is split across two Initials and the client migrates between
// them. The assembler state must survive the re-key so the hello still
// reassembles — the flow finalizes with its real SNI on ONE record.
func TestMigrationMidHandshakeAssemblerSurvives(t *testing.T) {
	ft := renderScenarioFlow(t, 43, fingerprint.Options{Migration: true}, true)
	if !ft.Migrated {
		t.Fatal("trace did not migrate")
	}
	p := New(emptyBank())
	feedTrace(p, ft)

	recs := p.Flows()
	if len(recs) != 1 {
		t.Fatalf("tracked %d flow records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.SNI != ft.SNI {
		t.Errorf("record SNI = %q, want %q (hello reassembled across the migration)", rec.SNI, ft.SNI)
	}
	if rec.Provider != fingerprint.YouTube {
		t.Errorf("record provider = %v, want YouTube", rec.Provider)
	}
	if got := p.TableStats().Rekeyed; got != 1 {
		t.Errorf("TableStats().Rekeyed = %d, want 1", got)
	}
}

// TestMigrationUnderCapPressure pins the /stats consistency contract under
// LRU eviction: flows that migrate and are then evicted produce exactly one
// record each — nothing double-counted, nothing orphaned — and eviction
// cleans the CID index behind them.
func TestMigrationUnderCapPressure(t *testing.T) {
	const flows = 5
	var evicted []*FlowRecord
	p := NewWithConfig(emptyBank(), Config{
		MaxFlows: 2,
		OnEvict:  func(rec *FlowRecord, _ flowtable.Reason) { evicted = append(evicted, rec) },
	})
	var want []string
	for i := 0; i < flows; i++ {
		ft := renderScenarioFlow(t, uint64(100+i), fingerprint.Options{Migration: true}, i%2 == 1)
		want = append(want, ft.Key().String())
		feedTrace(p, ft)
	}
	total := map[string]int{}
	for _, rec := range evicted {
		total[rec.Key.String()]++
	}
	for _, rec := range p.Flows() {
		total[rec.Key.String()]++
	}
	for _, k := range want {
		if total[k] != 1 {
			t.Errorf("flow %s produced %d records, want exactly 1", k, total[k])
		}
	}
	if st := p.TableStats(); st.Rekeyed != flows {
		t.Errorf("table rekeyed = %d, want %d", st.Rekeyed, flows)
	}
	if p.cids.len() > maxFlowCIDs*2 {
		t.Errorf("CID index holds %d entries for 2 live flows — eviction is leaking entries", p.cids.len())
	}
}

// TestMigrationIdleEvictionCleansCIDs pins idle-eviction cleanup: once every
// flow ages out, the CID index must be empty — stale entries would route a
// recycled CID into a dead flow's key and Rekey would fail forever after.
func TestMigrationIdleEvictionCleansCIDs(t *testing.T) {
	p := NewWithConfig(emptyBank(), Config{IdleTimeout: 30 * time.Second})
	ft := renderScenarioFlow(t, 71, fingerprint.Options{Migration: true}, false)
	feedTrace(p, ft)
	if p.cids.len() == 0 {
		t.Fatal("no CIDs learned from a QUIC flow")
	}
	// An unrelated TCP packet far in the future sweeps the idle table.
	g := tracegen.New(72)
	tcp, err := g.Flow("windows_chrome", fingerprint.Netflix, fingerprint.TCP, tracegen.FlowSpec{PayloadFrames: 1})
	if err != nil {
		t.Fatal(err)
	}
	p.HandlePacket(ft.Start.Add(time.Hour), tcp.Frames[0].Data)
	if st := p.TableStats(); st.EvictedIdle == 0 {
		t.Fatal("idle sweep did not run")
	}
	// Only the fresh TCP flow may still hold index entries (it holds none:
	// TCP flows never learn CIDs), so the index must be empty.
	if p.cids.len() != 0 {
		t.Errorf("CID index holds %d entries after idle eviction, want 0", p.cids.len())
	}
}

// TestMigrationTrailerPaddedFrames pins where the payload is looked for: a
// frame may carry Ethernet padding or a trailer after its IP datagram, and
// the QUIC payload is then not the frame's tail. Every frame of a migrating
// flow is padded here: the long headers must still teach the CID index the
// flow's connection IDs, and the short header that opens the new path must
// still re-key the flow rather than spawn a ghost — on a Pipeline and, with
// the payload located by the ingest-time decode, on a Sharded.
func TestMigrationTrailerPaddedFrames(t *testing.T) {
	ft := renderScenarioFlow(t, 41, fingerprint.Options{Migration: true}, false)
	padded := tracePackets(ft, 4)

	p := New(emptyBank())
	for i, pkt := range padded {
		p.HandlePacket(pkt.TS, pkt.Data)
		if i == 1 && p.cids.len() != 2 {
			// The client's Initial names its DCID (android_chrome's own ID is
			// empty); the server's flight adds the server's.
			t.Errorf("CID index holds %d IDs after the padded long-header flights, want 2", p.cids.len())
		}
	}
	if st := p.TableStats(); st.Rekeyed != 1 || st.Inserted != 1 {
		t.Errorf("Pipeline: table %+v; want 1 migration re-keying the 1 inserted flow", st)
	}

	s := NewSharded(emptyBank(), 4)
	go func() {
		for range s.Results() {
		}
	}()
	s.HandlePacketBatch(padded)
	s.Close()
	if st := s.TableStats(); s.IngestStats().Migrations != 1 || st.Rekeyed != 1 || st.Inserted != 1 {
		t.Errorf("Sharded: %d migrations, table %+v; want 1 migration re-keying the 1 inserted flow", s.IngestStats().Migrations, st)
	}
	for _, rec := range append(p.Flows(), s.Flows()...) {
		if got := rec.PacketsUp + rec.PacketsDown; got != len(ft.Frames) || rec.Key != ft.Key() {
			t.Errorf("record %v counted %d packets, want all %d on %v", rec.Key, got, len(ft.Frames), ft.Key())
		}
	}
}

// TestShardedMigrationRouting pins the ingest layer: shard placement hashes
// the 5-tuple, so a migrated tuple would hash to the wrong shard — the
// CID routing cache must override it and deliver post-migration frames to
// the owning shard. One record per logical flow across the whole Sharded.
func TestShardedMigrationRouting(t *testing.T) {
	leakcheck.Check(t)
	const flows = 6
	s := NewSharded(emptyBank(), 4)
	go func() {
		for range s.Results() {
		}
	}()
	var traces []*tracegen.FlowTrace
	for i := 0; i < flows; i++ {
		traces = append(traces, renderScenarioFlow(t, uint64(200+i), fingerprint.Options{Migration: true}, i%2 == 0))
	}
	// Interleave frames across flows in timestamp order, as a tap would.
	for j := 0; ; j++ {
		any := false
		for _, ft := range traces {
			if j < len(ft.Frames) {
				s.HandlePacket(ft.Start.Add(ft.Frames[j].Offset), ft.Frames[j].Data)
				any = true
			}
		}
		if !any {
			break
		}
	}
	s.Close()

	recs := s.Flows()
	if len(recs) != flows {
		t.Fatalf("tracked %d flow records, want %d (one per logical flow)", len(recs), flows)
	}
	byKey := map[string]int{}
	for _, rec := range recs {
		byKey[rec.Key.String()]++
	}
	for _, ft := range traces {
		if byKey[ft.Key().String()] != 1 {
			t.Errorf("flow %v has %d records, want 1", ft.Key(), byKey[ft.Key().String()])
		}
	}
	if st := s.TableStats(); st.Rekeyed != flows {
		t.Errorf("table rekeyed = %d, want %d", st.Rekeyed, flows)
	}
	ing := s.IngestStats()
	if ing.Migrations != uint64(flows) {
		t.Errorf("IngestStats().Migrations = %d, want %d", ing.Migrations, flows)
	}
}
