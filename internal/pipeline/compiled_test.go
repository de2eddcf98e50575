package pipeline

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"

	"videoplat/internal/features"
	"videoplat/internal/fingerprint"
	"videoplat/internal/ml"
	"videoplat/internal/tracegen"
)

// goldenBank trains a small bank whose vocabularies deliberately do NOT
// cover the evaluation traffic (different generator seed, plus open-set
// drifted profiles), so unseen tokens exercise the miss-to-zero path.
func goldenBank(t testing.TB) *Bank {
	t.Helper()
	ds, err := tracegen.New(1).LabDataset(0.04, fingerprint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bank, err := TrainBank(ds, TrainConfig{Forest: DefaultForestConfig()})
	if err != nil {
		t.Fatal(err)
	}
	return bank
}

func goldenEvalFlows(t testing.TB) []*tracegen.FlowTrace {
	t.Helper()
	fresh, err := tracegen.New(99).LabDataset(0.03, fingerprint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Open-set flows carry version-drifted profiles: tokens the fitted
	// vocabularies have never seen.
	drifted, err := tracegen.New(42).OpenSetDataset(1)
	if err != nil {
		t.Fatal(err)
	}
	return append(fresh.Flows, drifted.Flows...)
}

// checkBankEquivalence pins, for every evaluation flow and every model in
// the bank, that the compiled fast path is element-identical to
// Encoder.Transform over extracted field values on the live columns — every
// column some split of the entry's three forests reads — and zero on every
// dead one, and that ClassifyHandshake reproduces Classify byte for byte.
func checkBankEquivalence(t *testing.T, bank *Bank, flows []*tracegen.FlowTrace, tag string) {
	t.Helper()
	var sc ClassifyScratch
	for fi, ft := range flows {
		info, err := ExtractTrace(ft)
		if err != nil {
			t.Fatal(err)
		}
		v := features.Extract(info)
		models := make([]*Model, 0, 3)
		for _, obj := range []Objective{PlatformObjective, DeviceObjective, AgentObjective} {
			m := bank.Model(ft.Provider, ft.Transport, obj)
			if m == nil {
				t.Fatalf("%s: no %s model for %s/%s", tag, obj, ft.Provider, ft.Transport)
			}
			models = append(models, m)
		}
		live := make([]bool, models[0].Encoder.Width())
		for _, m := range models {
			for _, f := range m.CompiledForest().SplitFeatures() {
				live[f] = true
			}
		}
		for obj, m := range models {
			ce := m.Compiled()
			if ce == nil {
				t.Fatalf("%s: encoder for %s/%s/%s did not compile", tag, ft.Provider, ft.Transport, Objective(obj))
			}
			want := m.Encoder.Transform(v)
			got := ce.Encode(info)
			if len(got) != len(want) {
				t.Fatalf("%s: flow %d (%s/%s/%s): compiled width %d, reference %d",
					tag, fi, ft.Provider, ft.Transport, Objective(obj), len(got), len(want))
			}
			for i := range want {
				if !live[i] {
					want[i] = 0 // no split reads it: the compiled encoder leaves it zero
				}
				if want[i] != got[i] {
					t.Fatalf("%s: flow %d (%s/%s/%s) column %d (%s, live %v): compiled %v, want %v",
						tag, fi, ft.Provider, ft.Transport, Objective(obj), i, m.Encoder.Columns()[i].Name, live[i], got[i], want[i])
				}
			}
		}

		ref, err := bank.Classify(ft.Provider, ft.Transport, v)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := bank.ClassifyHandshake(ft.Provider, ft.Transport, info, &sc)
		if err != nil {
			t.Fatal(err)
		}
		if fast != ref {
			t.Fatalf("%s: flow %d (%s): predictions diverge:\nfast: %+v\nref:  %+v",
				tag, fi, ft.Label, fast, ref)
		}
	}

	checkBatchEquivalence(t, bank, flows, tag)
}

// checkBatchEquivalence groups the evaluation flows per (provider,
// transport) and pins that one ClassifyBatch sweep reproduces every per-flow
// ClassifyHandshake prediction byte for byte — including PlatformMargin,
// which rides the same probability vector.
func checkBatchEquivalence(t *testing.T, bank *Bank, flows []*tracegen.FlowTrace, tag string) {
	t.Helper()
	type group struct {
		infos []*features.HandshakeInfo
		want  []Prediction
	}
	groups := map[entryKey]*group{}
	var sc ClassifyScratch
	for _, ft := range flows {
		info, err := ExtractTrace(ft)
		if err != nil {
			t.Fatal(err)
		}
		want, err := bank.ClassifyHandshake(ft.Provider, ft.Transport, info, &sc)
		if err != nil {
			t.Fatal(err)
		}
		k := entryKey{ft.Provider, ft.Transport}
		g := groups[k]
		if g == nil {
			g = &group{}
			groups[k] = g
		}
		g.infos = append(g.infos, info)
		g.want = append(g.want, want)
	}
	for k, g := range groups {
		out := make([]Prediction, len(g.infos))
		if err := bank.ClassifyBatch(k.Provider, k.Transport, g.infos, &sc, out); err != nil {
			t.Fatal(err)
		}
		for i, want := range g.want {
			if out[i] != want {
				t.Fatalf("%s: %s/%s batch flow %d diverges:\nbatch:    %+v\nper-flow: %+v",
					tag, k.Provider, k.Transport, i, out[i], want)
			}
		}
	}
}

func TestCompiledBankGoldenEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a bank")
	}
	bank := goldenBank(t)
	flows := goldenEvalFlows(t)
	checkBankEquivalence(t, bank, flows, "fresh")

	// The contract must survive deployment: gob round-trip the bank (the
	// vptrain -> registry -> vpserve path) and re-pin everything.
	blob, err := bank.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := &Bank{}
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	checkBankEquivalence(t, restored, flows, "gob-roundtrip")

	// And the two banks agree with each other.
	for _, ft := range flows[:20] {
		info, err := ExtractTrace(ft)
		if err != nil {
			t.Fatal(err)
		}
		a, err := bank.ClassifyHandshake(ft.Provider, ft.Transport, info, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := restored.ClassifyHandshake(ft.Provider, ft.Transport, info, nil)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("restored bank diverges on %s: %+v vs %+v", ft.Label, a, b)
		}
	}
}

// TestCascadeConsultsFallbackOnlyWhenUnsure pins the §4.1 cascade on the
// golden flows: a composite prediction never consulted the device and agent
// models (zero confidences, halves derived from the platform label), and
// every other prediction carries exactly the confidences those models give
// the entry's compiled row. The golden set holds both kinds, so the batch
// sweep of checkBatchEquivalence mixes the two branches.
func TestCascadeConsultsFallbackOnlyWhenUnsure(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a bank")
	}
	bank := goldenBank(t)
	var sc ClassifyScratch
	var proba []float64
	composite, unsure := 0, 0
	for fi, ft := range goldenEvalFlows(t) {
		info, err := ExtractTrace(ft)
		if err != nil {
			t.Fatal(err)
		}
		p, err := bank.ClassifyHandshake(ft.Provider, ft.Transport, info, &sc)
		if err != nil {
			t.Fatal(err)
		}
		if p.Status == Composite {
			composite++
			if p.DeviceConf != 0 || p.AgentConf != 0 || p.Device != DeviceOf(p.Platform) || p.Agent != AgentOf(p.Platform) {
				t.Fatalf("flow %d (%s): composite prediction consulted the fallback models: %+v", fi, ft.Label, p)
			}
			continue
		}
		unsure++
		e := bank.entry(ft.Provider, ft.Transport)
		row := e.platform.Compiled().Encode(info)
		_, devConf := e.device.CompiledForest().PredictInto(row, &proba)
		_, agentConf := e.agent.CompiledForest().PredictInto(row, &proba)
		if p.DeviceConf != devConf || p.AgentConf != agentConf {
			t.Fatalf("flow %d (%s): %s prediction has device/agent confidence %v/%v, the fallback models give %v/%v",
				fi, ft.Label, p.Status, p.DeviceConf, p.AgentConf, devConf, agentConf)
		}
	}
	if composite == 0 || unsure == 0 {
		t.Fatalf("golden set holds %d composite and %d partial/unknown flows, want both", composite, unsure)
	}
}

// goldenInfoByBranch returns the handshake of the first golden YouTube flow
// over tr that the cascade decides on its composite branch (composite true)
// or, with platform confidence below ConfidenceThreshold, on its fallback
// branch — picked by status, not by a generator seed.
func goldenInfoByBranch(tb testing.TB, bank *Bank, tr fingerprint.Transport, composite bool) *features.HandshakeInfo {
	tb.Helper()
	for _, ft := range goldenEvalFlows(tb) {
		if ft.Provider != fingerprint.YouTube || ft.Transport != tr {
			continue
		}
		info, err := ExtractTrace(ft)
		if err != nil {
			tb.Fatal(err)
		}
		p, err := bank.ClassifyHandshake(ft.Provider, tr, info, nil)
		if err != nil {
			tb.Fatal(err)
		}
		if (p.Status == Composite) == composite {
			return info
		}
	}
	tb.Fatalf("no golden youtube/%s flow takes the composite=%v branch", tr, composite)
	return nil
}

// BenchmarkClassifyHandshake reports the warm-scratch cost of one
// classification. composite and fallback classify one YouTube TCP flow over
// and over, on each branch of the §4.1 cascade: composite walks the platform
// forest only, fallback walks all three. mixed classifies one flow per bank
// entry in turn, the way a shard meets them, so each classification starts
// on another entry's encoder and forests. distinct classifies every golden
// evaluation flow that has a bank entry in turn: mixed repeats a handful of
// rows, so the branch predictor learns their paths through the trees, and
// distinct rows show what a walk costs where it cannot.
func BenchmarkClassifyHandshake(b *testing.B) {
	bank := goldenBank(b)
	for _, branch := range []struct {
		name      string
		composite bool
	}{{"composite", true}, {"fallback", false}} {
		info := goldenInfoByBranch(b, bank, fingerprint.TCP, branch.composite)
		b.Run(branch.name, func(b *testing.B) {
			var sc ClassifyScratch
			if _, err := bank.ClassifyHandshake(fingerprint.YouTube, fingerprint.TCP, info, &sc); err != nil {
				b.Fatal(err) // warms the scratch, as a shard's is after its first flow
			}
			b.ReportAllocs()
			for b.Loop() {
				if _, err := bank.ClassifyHandshake(fingerprint.YouTube, fingerprint.TCP, info, &sc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	var distinct, mixed []*tracegen.FlowTrace
	var infos, mixedInfos []*features.HandshakeInfo
	seen := map[entryKey]bool{}
	for _, ft := range goldenEvalFlows(b) {
		key := entryKey{ft.Provider, ft.Transport}
		if bank.entry(key.Provider, key.Transport) == nil {
			continue
		}
		info, err := ExtractTrace(ft)
		if err != nil {
			b.Fatal(err)
		}
		distinct, infos = append(distinct, ft), append(infos, info)
		if !seen[key] {
			seen[key] = true
			mixed, mixedInfos = append(mixed, ft), append(mixedInfos, info)
		}
	}
	if len(mixed) != len(bank.entries) {
		b.Fatalf("golden flows cover %d of the bank's %d entries", len(mixed), len(bank.entries))
	}
	for _, c := range []struct {
		name  string
		flows []*tracegen.FlowTrace
		infos []*features.HandshakeInfo
	}{{"mixed", mixed, mixedInfos}, {"distinct", distinct, infos}} {
		b.Run(c.name, func(b *testing.B) {
			var sc ClassifyScratch
			classify := func(i int) {
				if _, err := bank.ClassifyHandshake(c.flows[i].Provider, c.flows[i].Transport, c.infos[i], &sc); err != nil {
					b.Fatal(err)
				}
			}
			for i := range c.flows {
				classify(i)
			}
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				classify(i)
				if i++; i == len(c.flows) {
					i = 0
				}
			}
		})
	}
}

// TestBankReloadRebuildsServingIndex pins that UnmarshalBinary into a Bank
// that has already classified (and so has a built entry index) rebuilds the
// index around the freshly decoded models instead of serving stale ones.
func TestBankReloadRebuildsServingIndex(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a bank")
	}
	blob, err := goldenBank(t).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b := &Bank{}
	if err := b.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	ft, err := tracegen.New(7).Flow("windows_chrome", fingerprint.YouTube, fingerprint.TCP, tracegen.FlowSpec{PayloadFrames: 1})
	if err != nil {
		t.Fatal(err)
	}
	info, err := ExtractTrace(ft)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.ClassifyHandshake(fingerprint.YouTube, fingerprint.TCP, info, nil); err != nil {
		t.Fatal(err) // builds the lazy entry index
	}
	if err := b.UnmarshalBinary(blob); err != nil {
		t.Fatal(err) // in-place reload: new *Model instances
	}
	if _, err := b.ClassifyHandshake(fingerprint.YouTube, fingerprint.TCP, info, nil); err != nil {
		t.Fatal(err)
	}
	e := b.entry(fingerprint.YouTube, fingerprint.TCP)
	if e == nil || e.platform != b.Model(fingerprint.YouTube, fingerprint.TCP, PlatformObjective) {
		t.Fatal("serving index still points at the pre-reload models")
	}
}

// TestBankReloadRebuildsCompiledForests pins that an in-place reload (the
// hot-swap UnmarshalBinary path) rebuilds the compiled serving forests
// around the freshly decoded models: the entry's flat-array forests must
// belong to the post-reload models, not the pre-reload ones.
func TestBankReloadRebuildsCompiledForests(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a bank")
	}
	blob, err := goldenBank(t).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b := &Bank{}
	if err := b.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	oldModel := b.Model(fingerprint.YouTube, fingerprint.TCP, PlatformObjective)
	oldForest := oldModel.CompiledForest()
	if oldForest == nil {
		t.Fatal("pre-reload model did not compile")
	}
	if err := b.UnmarshalBinary(blob); err != nil {
		t.Fatal(err) // in-place reload: new *Model instances
	}
	m := b.Model(fingerprint.YouTube, fingerprint.TCP, PlatformObjective)
	if m == oldModel {
		t.Fatal("reload did not replace the models")
	}
	if e := b.entry(fingerprint.YouTube, fingerprint.TCP); e == nil || e.platform != m {
		t.Error("serving index still carries the pre-reload platform model")
	}
	if m.CompiledForest() == nil || m.CompiledForest() == oldForest {
		t.Error("compiled platform forest was not rebuilt for the reloaded model")
	}
	fp := b.CompiledFootprint()
	if fp.CompiledModels != fp.Models || fp.Nodes == 0 || fp.Bytes == 0 {
		t.Errorf("post-reload footprint looks wrong: %+v", fp)
	}
}

// TestUnmarshalRefusesUnservableBank pins the load-time contract: a blob
// holding an entry that cannot be served — a forest with no trees, objective
// encoders that cannot share one encoder, an objective model missing, a
// forest split past its entry's encoded row, or class names that differ from
// the forest's distribution width, either of which would index out of range
// on a serving goroutine — is refused with an error naming the model, and a
// Bank reloaded in place keeps serving what it held.
func TestUnmarshalRefusesUnservableBank(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a bank")
	}
	good, err := goldenBank(t).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// reencode decodes the good blob, applies edit and encodes it again.
	reencode := func(edit func(*bankDTO)) []byte {
		var dto bankDTO
		if err := gob.NewDecoder(bytes.NewReader(good)).Decode(&dto); err != nil {
			t.Fatal(err)
		}
		edit(&dto)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(dto); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// rewrite re-encodes the blob with one model's DTO edited, or dropped
	// when edit is nil.
	rewrite := func(prov fingerprint.Provider, tr fingerprint.Transport, obj Objective, edit func(*modelDTO)) []byte {
		return reencode(func(dto *bankDTO) {
			kept := dto.Models[:0]
			for _, md := range dto.Models {
				if md.Provider == uint8(prov) && md.Transport == uint8(tr) && md.Objective == uint8(obj) {
					if edit == nil {
						continue
					}
					edit(&md)
				}
				kept = append(kept, md)
			}
			dto.Models = kept
		})
	}
	// quicTwins gives every TCP model its QUIC twin's forest, and its class
	// names too when withClasses is set, so only the encoded row's width
	// misfits.
	quicTwins := func(withClasses bool) []byte {
		return reencode(func(dto *bankDTO) {
			twin := map[[2]uint8]modelDTO{}
			for _, md := range dto.Models {
				if md.Transport == uint8(fingerprint.QUIC) {
					twin[[2]uint8{md.Provider, md.Objective}] = md
				}
			}
			for i, md := range dto.Models {
				if q, ok := twin[[2]uint8{md.Provider, md.Objective}]; ok && md.Transport == uint8(fingerprint.TCP) {
					dto.Models[i].Forest = q.Forest
					if withClasses {
						dto.Models[i].Classes = q.Classes
					}
				}
			}
		})
	}
	oneClass := reencode(func(dto *bankDTO) {
		for i := range dto.Models {
			dto.Models[i].Classes = dto.Models[i].Classes[:1]
		}
	})
	emptyForest, err := (&ml.RandomForest{}).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	unfitted, err := features.NewEncoder(false, nil)
	if err != nil {
		t.Fatal(err)
	}
	otherEncoder, err := unfitted.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		blob []byte
		want string
	}{
		{"forest without trees",
			rewrite(fingerprint.Netflix, fingerprint.TCP, DeviceObjective, func(md *modelDTO) { md.Forest = emptyForest }),
			"netflix/tcp/device type"},
		{"objective encoders differ",
			rewrite(fingerprint.YouTube, fingerprint.TCP, AgentObjective, func(md *modelDTO) { md.Encoder = otherEncoder }),
			"youtube/tcp/software agent"},
		{"objective model missing",
			rewrite(fingerprint.YouTube, fingerprint.QUIC, AgentObjective, nil),
			"youtube/quic/software agent"},
		{"objective out of range",
			rewrite(fingerprint.Amazon, fingerprint.TCP, DeviceObjective, func(md *modelDTO) { md.Objective = 7 }),
			"amazon/tcp: unknown objective 7"},
		{"TCP models given their QUIC twins' forests", quicTwins(false),
			"youtube/tcp/user platform: 14 class names for a forest of 12 classes"},
		{"TCP models given their QUIC twins' forests and class names", quicTwins(true),
			"compiling youtube/tcp/user platform: ml: cannot compile a split on feature"},
		{"one class name per model", oneClass,
			"/user platform: 1 class names for a forest of"},
	} {
		b := &Bank{}
		if err := b.UnmarshalBinary(good); err != nil {
			t.Fatal(err)
		}
		before := b.Model(fingerprint.YouTube, fingerprint.TCP, PlatformObjective)
		err := b.UnmarshalBinary(tc.blob)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: UnmarshalBinary error = %v, want one naming %s", tc.name, err, tc.want)
		}
		if b.Model(fingerprint.YouTube, fingerprint.TCP, PlatformObjective) != before ||
			b.entry(fingerprint.YouTube, fingerprint.TCP) == nil {
			t.Errorf("%s: a refused reload disturbed the bank it was loading into", tc.name)
		}
	}
}

// TestEntrySharesOneEncoder pins the bank's unit: an entry's three models
// share one fitted encoder and one compiled encoder, after TrainBank and after
// a gob round trip. On the wire the blob keeps its layout — format 1, three
// modelDTOs per entry, each with an encoder blob — and those blobs decode to
// equivalent encoders, which is what a loader that keeps three encoders per
// entry checks.
func TestEntrySharesOneEncoder(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a bank")
	}
	trained := goldenBank(t)
	blob, err := trained.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := &Bank{}
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	for tag, b := range map[string]*Bank{"trained": trained, "gob-roundtrip": restored} {
		if len(b.entries) != 5 {
			t.Fatalf("%s: %d entries, want 5", tag, len(b.entries))
		}
		for key := range b.entries {
			p := b.Model(key.Provider, key.Transport, PlatformObjective)
			for _, obj := range []Objective{DeviceObjective, AgentObjective} {
				m := b.Model(key.Provider, key.Transport, obj)
				if m.Encoder != p.Encoder || m.Compiled() != p.Compiled() || p.Compiled() == nil {
					t.Errorf("%s: %s/%s/%s does not share the %s model's encoder and compiled encoder",
						tag, key.Provider, key.Transport, obj, PlatformObjective)
				}
			}
		}
	}

	var dto bankDTO
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&dto); err != nil {
		t.Fatal(err)
	}
	if dto.Format != 2 {
		t.Errorf("blob format %d, want 2", dto.Format)
	}
	encoders := map[entryKey][]*features.Encoder{}
	for _, md := range dto.Models {
		enc := &features.Encoder{}
		if err := enc.UnmarshalBinary(md.Encoder); err != nil {
			t.Fatal(err)
		}
		k := entryKey{fingerprint.Provider(md.Provider), fingerprint.Transport(md.Transport)}
		encoders[k] = append(encoders[k], enc)
	}
	if len(encoders) != 5 {
		t.Fatalf("blob holds %d entries, want 5", len(encoders))
	}
	for k, encs := range encoders {
		if len(encs) != 3 {
			t.Errorf("%s/%s: %d modelDTOs, want 3", k.Provider, k.Transport, len(encs))
		}
		for _, enc := range encs[1:] {
			if !enc.EquivalentTo(encs[0]) {
				t.Errorf("%s/%s: the entry's encoder blobs decode to encoders that differ", k.Provider, k.Transport)
			}
		}
	}
}

// TestClassifyBatchZeroAlloc pins the batched serving budget: with warm
// scratch matrices, a whole-group encode+classify sweep allocates nothing.
// Each batch holds a golden flow from either branch of the cascade, so one
// sweep takes both.
func TestClassifyBatchZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a bank")
	}
	bank := goldenBank(t)
	for _, tr := range []fingerprint.Transport{fingerprint.TCP, fingerprint.QUIC} {
		infos := make([]*features.HandshakeInfo, 0, 10)
		for i := 0; i < 8; i++ {
			ft, err := tracegen.New(uint64(20+i)).Flow("windows_chrome", fingerprint.YouTube, tr, tracegen.FlowSpec{PayloadFrames: 1})
			if err != nil {
				t.Fatal(err)
			}
			info, err := ExtractTrace(ft)
			if err != nil {
				t.Fatal(err)
			}
			infos = append(infos, info)
		}
		infos = append(infos, goldenInfoByBranch(t, bank, tr, true), goldenInfoByBranch(t, bank, tr, false))
		var sc ClassifyScratch
		out := make([]Prediction, len(infos))
		if err := bank.ClassifyBatch(fingerprint.YouTube, tr, infos, &sc, out); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := bank.ClassifyBatch(fingerprint.YouTube, tr, infos, &sc, out); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: ClassifyBatch allocates %.1f per call, want 0", tr, allocs)
		}
	}
}

// TestClassifyHandshakeZeroAlloc pins the serving-path budget: with a warm
// per-worker scratch, encode+predict allocates nothing — for a windows_chrome
// render and for a golden flow from each branch of the cascade.
func TestClassifyHandshakeZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a bank")
	}
	bank := goldenBank(t)
	for _, tr := range []fingerprint.Transport{fingerprint.TCP, fingerprint.QUIC} {
		ft, err := tracegen.New(7).Flow("windows_chrome", fingerprint.YouTube, tr, tracegen.FlowSpec{PayloadFrames: 1})
		if err != nil {
			t.Fatal(err)
		}
		render, err := ExtractTrace(ft)
		if err != nil {
			t.Fatal(err)
		}
		for name, info := range map[string]*features.HandshakeInfo{
			"windows_chrome": render,
			"composite":      goldenInfoByBranch(t, bank, tr, true),
			"fallback":       goldenInfoByBranch(t, bank, tr, false),
		} {
			var sc ClassifyScratch
			if _, err := bank.ClassifyHandshake(fingerprint.YouTube, tr, info, &sc); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(100, func() {
				if _, err := bank.ClassifyHandshake(fingerprint.YouTube, tr, info, &sc); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s %s: ClassifyHandshake allocates %.1f per call, want 0", tr, name, allocs)
			}
		}
	}
}

// TestClassifyPartialZeroAlloc pins the degraded serving path: a partial
// HandshakeInfo with no ClientHello — the input ECH and 0-RTT flows present
// to the early-classification gate — must classify with zero allocations,
// since finishDegraded runs it on the serving path for every hinted ECH and
// 0-RTT flow.
func TestClassifyPartialZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a bank")
	}
	bank := goldenBank(t)
	info := &features.HandshakeInfo{QUIC: true, TTL: 52, InitPacketSize: 1252}
	var sc ClassifyScratch
	if _, err := bank.ClassifyHandshake(fingerprint.YouTube, fingerprint.QUIC, info, &sc); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := bank.ClassifyHandshake(fingerprint.YouTube, fingerprint.QUIC, info, &sc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("partial-info ClassifyHandshake allocates %.1f per call, want 0", allocs)
	}
}
