package features_test

import (
	"testing"

	"videoplat/internal/features"
	"videoplat/internal/fingerprint"
	"videoplat/internal/pipeline"
	"videoplat/internal/tlsproto"
	"videoplat/internal/tracegen"
)

// fuzzSeeds are ClientHello messages for FuzzEncodeMatchesExtract's corpus:
// tracegen renders of every platform profile over TCP and QUIC (ECH hellos
// included), hand-built hellos with malformed extension bodies, and each of
// those truncated and bit-flipped.
func fuzzSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	g := tracegen.New(31)
	var out [][]byte
	for _, label := range fingerprint.AllPlatformLabels() {
		for _, prov := range fingerprint.AllProviders() {
			if !fingerprint.SupportMatrix(label, prov) {
				continue
			}
			for _, tr := range []fingerprint.Transport{fingerprint.TCP, fingerprint.QUIC} {
				if tr == fingerprint.TCP && !fingerprint.SupportsTCP(label, prov) ||
					tr == fingerprint.QUIC && !fingerprint.SupportsQUIC(label, prov) {
					continue
				}
				for _, opts := range []fingerprint.Options{{}, {ECH: true}} {
					ft, err := g.Flow(label, prov, tr, tracegen.FlowSpec{Options: opts, PayloadFrames: 1})
					if err != nil {
						tb.Fatal(err)
					}
					info, err := pipeline.ExtractTrace(ft)
					if err != nil {
						tb.Fatal(err)
					}
					out = append(out, info.Hello.Marshal())
				}
			}
		}
	}
	for _, exts := range [][]tlsproto.Extension{{
		{Type: tlsproto.ExtSupportedGroups, Data: []byte{0, 3, 0, 0x1d, 0}},  // odd-length list
		{Type: tlsproto.ExtRecordSizeLimit, Data: []byte{0x40}},              // short record_size_limit
		{Type: tlsproto.ExtStatusRequest, Data: nil},                         // empty status_request
		{Type: tlsproto.ExtALPN, Data: []byte{0, 6, 2, 'h', '2', 8, 'h'}},    // truncated ALPN body
		{Type: tlsproto.ExtSupportedVersions, Data: []byte{3, 3, 4, 3}},      // odd-length u8 list
		{Type: tlsproto.ExtKeyShare, Data: []byte{0, 8, 0, 0x1d, 0, 32, 1}},  // key runs past the body
		{Type: tlsproto.ExtCompressCertificate, Data: []byte{2, 0, 9}},       // unknown algorithm
		{Type: tlsproto.ExtQUICTransportParams, Data: []byte{0x01, 0x04, 1}}, // truncated parameter
	}, {
		{Type: tlsproto.ExtRecordSizeLimit, Data: []byte{0x40, 0, 1}}, // long record_size_limit
		{Type: tlsproto.ExtStatusRequest, Data: []byte{0}},            // status type 0
		{Type: tlsproto.ExtECPointFormats, Data: []byte{0}},           // empty point-format list
		{Type: tlsproto.ExtCompressCertificate, Data: []byte{0}},      // empty algorithm list
		{Type: tlsproto.ExtSignatureAlgorithms, Data: []byte{0xff}},   // short length prefix
	}} {
		ch := &tlsproto.ClientHello{LegacyVersion: tlsproto.VersionTLS12,
			CipherSuites: []uint16{0x1301, 0x0a0a}, CompressionMethods: []byte{0}, Extensions: exts}
		out = append(out, ch.Marshal())
	}

	mutated := make([][]byte, 0, 3*len(out))
	for _, msg := range out {
		for _, cut := range []int{len(msg) / 2, len(msg) - 1} {
			mutated = append(mutated, msg[:cut])
		}
		flip := append([]byte(nil), msg...)
		flip[len(flip)/3] ^= 0x40
		mutated = append(mutated, flip)
	}
	return append(out, mutated...)
}

// fuzzInfo places a hello in a flow: over QUIC, or over TCP with SYN fields
// drawn from the fuzzed size and TTL so every flag bit and option is reached.
func fuzzInfo(ch *tlsproto.ClientHello, quic bool, size uint16, ttl uint8) *features.HandshakeInfo {
	info := &features.HandshakeInfo{QUIC: quic, InitPacketSize: int(size), TTL: ttl, Hello: ch, TCPWScale: -1}
	if !quic {
		info.TCPFlags = uint8(size >> 8)
		info.TCPWindow = size
		info.TCPMSS = size / 3
		info.TCPWScale = int(ttl%16) - 1
		info.TCPSACK = ttl&0x10 != 0
	}
	return info
}

func fitEncoder(tb testing.TB, quic bool, infos []*features.HandshakeInfo) *features.Encoder {
	tb.Helper()
	enc, err := features.NewEncoder(quic, nil)
	if err != nil {
		tb.Fatal(err)
	}
	samples := make([]*features.FieldValues, len(infos))
	for i, info := range infos {
		samples[i] = features.Extract(info)
	}
	enc.Fit(samples)
	return enc
}

// FuzzEncodeMatchesExtract pins the serving encoder to the training
// extractor on arbitrary hellos: for every message tlsproto.Parse accepts,
// over both transports, EncodeInto equals Transform(Extract(...)) under an
// encoder fitted on that hello alone (every token known) and one fitted on
// the lab dataset (the hello's unseen tokens map to 0), on every column of
// the live set drawn from live (column c is live when bit c%64 is set), and
// every other column is zero. Each seed hello runs once with every column
// live and once with about half of them.
func FuzzEncodeMatchesExtract(f *testing.F) {
	lab, err := tracegen.New(32).LabDataset(0.02, fingerprint.Options{})
	if err != nil {
		f.Fatal(err)
	}
	var labInfos [2][]*features.HandshakeInfo
	for _, ft := range lab.Flows {
		info, err := pipeline.ExtractTrace(ft)
		if err != nil {
			f.Fatal(err)
		}
		q := 0
		if info.QUIC {
			q = 1
		}
		labInfos[q] = append(labInfos[q], info)
	}
	var labRefs [2]*features.Encoder
	for q := range labRefs {
		labRefs[q] = fitEncoder(f, q == 1, labInfos[q])
	}
	for i, msg := range fuzzSeeds(f) {
		f.Add(msg, uint16(60+i), uint8(i), ^uint64(0))
		f.Add(msg, uint16(60+i), uint8(i), uint64(0x9e3779b97f4a7c15)<<(i%5))
	}

	var sc features.EncodeScratch
	f.Fuzz(func(t *testing.T, msg []byte, size uint16, ttl uint8, liveBits uint64) {
		ch, err := tlsproto.Parse(msg)
		if err != nil {
			return
		}
		for q, quic := range []bool{false, true} {
			info := fuzzInfo(ch, quic, size, ttl)
			own := fitEncoder(t, quic, []*features.HandshakeInfo{info})
			v := features.Extract(info)
			for _, enc := range []struct {
				name string
				ref  *features.Encoder
			}{{"own", own}, {"lab", labRefs[q]}} {
				live := make([]bool, enc.ref.Width())
				for c := range live {
					live[c] = liveBits>>(c%64)&1 != 0
				}
				compiled, err := features.Compile(enc.ref, live)
				if err != nil {
					t.Fatal(err)
				}
				want := enc.ref.Transform(v)
				got := compiled.EncodeInto(nil, info, &sc)
				if len(got) != len(want) {
					t.Fatalf("quic=%v %s encoder: width %d, want %d", quic, enc.name, len(got), len(want))
				}
				for i := range want {
					if !live[i] {
						want[i] = 0
					}
					if got[i] != want[i] {
						t.Fatalf("quic=%v %s encoder: column %s (live %v) = %v, want %v",
							quic, enc.name, enc.ref.Columns()[i].Name, live[i], got[i], want[i])
					}
				}
			}
		}
	})
}
