package fingerprint

import (
	"fmt"
	"math/rand/v2"
	"strings"

	"videoplat/internal/quicproto"
	"videoplat/internal/tlsproto"
	"videoplat/internal/wire"
)

// Flow is the handshake-level description of one generated video flow: the
// values a platform would put on the wire for its first packets. The trace
// generator renders it into packets; the feature extractor should recover
// exactly these values from the rendered bytes.
type Flow struct {
	Key       PlatformKey
	Provider  Provider
	Transport Transport
	SNI       string

	// TCP SYN parameters (TCP flows).
	TTL        uint8
	Window     uint16
	MSS        uint16
	WScale     int
	SACK       bool
	Timestamps bool
	ECN        bool

	// TLS ClientHello, including the quic_transport_parameters extension
	// for QUIC flows.
	Hello *tlsproto.ClientHello

	// QUIC Initial parameters (QUIC flows).
	DCID, SCID     []byte
	QUICTargetSize int
}

// Options controls flow generation.
type Options struct {
	// OpenSet applies the version-drift mutations that model the paper's
	// open-set dataset: same devices, different OS/app versions.
	OpenSet bool
	// ManagementFlow generates the step-1 flow to the provider's management
	// server instead of a content-server flow.
	ManagementFlow bool

	// ECH renders an Encrypted ClientHello flow: the hello carries a
	// GREASE-ECH extension and its visible server_name is a neutral
	// fronting public name. Flow.SNI keeps the real (inner) provider
	// hostname as ground truth, but that name never appears on the wire —
	// an observer sees only the fronted outer hello.
	ECH bool
	// ZeroRTT renders a session-resumption flow. For QUIC the trace
	// generator emits 0-RTT early-data packets and no fresh Initial, so no
	// ClientHello is observable at all; for TCP the hello carries
	// early_data + pre_shared_key (a resumption hello, still parseable).
	ZeroRTT bool
	// Migration marks the flow for mid-stream connection migration: the
	// trace generator changes the client's 5-tuple partway through a QUIC
	// flow. It does not alter the handshake itself and is ignored for TCP
	// (which has no migration concept).
	Migration bool
}

// Generate draws one flow for the platform with the given label. It returns
// an error for unsupported (platform, provider) pairs or for QUIC on
// platforms/providers that do not use it.
func Generate(rng *rand.Rand, label string, prov Provider, tr Transport, opts Options) (*Flow, error) {
	p := profiles[label]
	if p == nil {
		return nil, fmt.Errorf("fingerprint: unknown platform %q", label)
	}
	if !SupportMatrix(label, prov) {
		return nil, fmt.Errorf("fingerprint: %s does not support %s", label, prov)
	}
	if tr == QUIC && !SupportsQUIC(label, prov) {
		return nil, fmt.Errorf("fingerprint: %s/%s does not use QUIC", label, prov)
	}

	f := &Flow{Key: p.Key, Provider: prov, Transport: tr}
	f.SNI = serverName(rng, prov, opts.ManagementFlow)

	tcp := p.TCPP
	f.TTL = tcp.TTL
	f.Window = tcp.Window
	if len(tcp.WindowAlts) > 0 && rng.Float64() < 0.3 {
		f.Window = tcp.WindowAlts[rng.IntN(len(tcp.WindowAlts))]
	}
	f.MSS = tcp.MSS
	f.WScale = tcp.WScale
	f.SACK = tcp.SACK
	f.Timestamps = tcp.Timestamps
	f.ECN = tcp.ECN

	tls := p.TLS
	if opts.OpenSet {
		tls = driftTLS(rng, tls, label)
		if tcp.WindowAlts != nil {
			f.Window = tcp.WindowAlts[0]
		}
		// An iOS point release aligned the native-app TCP stack with macOS
		// — the drift behind the paper's high-confidence iOS↔macOS
		// misclassifications (§4.3.2, worst for Amazon where a macOS
		// native app exists).
		if p.Key.Device == IOS && p.Key.Agent == NativeApp {
			f.MSS = 1460
		}
	}
	f.Hello = buildHello(rng, &tls, p, f, prov, tr, opts)

	if tr == QUIC {
		q := *p.QUIC
		if opts.OpenSet {
			driftQUIC(&q, label, p.Key)
		}
		f.DCID = randBytes(rng, q.DCIDLen)
		f.SCID = randBytes(rng, q.SCIDLen)
		// Observed Initial datagram sizes jitter around the client's padding
		// target: retry tokens, coalesced packets and path-MTU probing all
		// move the first datagram by tens of bytes in real captures.
		f.QUICTargetSize = q.TargetSize + rng.IntN(121) - 60
		if f.QUICTargetSize < 1200 {
			f.QUICTargetSize = 1200
		}
	}
	return f, nil
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.UintN(256))
	}
	return b
}

// buildHello renders the TLS profile into a concrete ClientHello.
func buildHello(rng *rand.Rand, tls *TLSProfile, p *Profile, f *Flow, prov Provider, tr Transport, opts Options) *tlsproto.ClientHello {
	ch := &tlsproto.ClientHello{LegacyVersion: tlsproto.VersionTLS12}
	for i := range ch.Random {
		ch.Random[i] = byte(rng.UintN(256))
	}
	if tls.SessionIDLen > 0 {
		ch.SessionID = randBytes(rng, tls.SessionIDLen)
	}

	greaseIdx := rng.IntN(16)
	suites := make([]uint16, 0, len(tls.CipherSuites)+1)
	if tls.Grease {
		suites = append(suites, wire.GreaseValue(greaseIdx))
	}
	suites = append(suites, tls.CipherSuites...)
	ch.CipherSuites = suites
	ch.CompressionMethods = []byte{0}

	alpn := tls.ALPN
	if tr == QUIC {
		alpn = []string{"h3"}
	}
	alpn = providerALPN(alpn, prov, p.Key)

	ticket := rng.Float64() < tls.TicketProb
	// A 0-RTT resumption always presents its ticket; otherwise the profile's
	// resumption probability applies (the draw is kept either way so the
	// knob does not shift later draws).
	psk := rng.Float64() < tls.PSKProb || opts.ZeroRTT

	// The on-wire server_name: the real hostname, or — with ECH — a neutral
	// fronting public name while the real name hides in the encrypted inner
	// hello.
	sni := f.SNI
	if opts.ECH {
		sni = echOuterName(rng)
	}

	order := tls.Extensions
	if tls.ShuffleExts {
		order = shuffledExts(rng, order)
	}

	var exts []tlsproto.Extension
	if tls.Grease {
		exts = append(exts, tlsproto.Extension{Type: wire.GreaseValue(greaseIdx + 1), Data: nil})
	}
	for _, typ := range order {
		switch typ {
		case tlsproto.ExtServerName:
			exts = append(exts, tlsproto.Extension{Type: typ, Data: tlsproto.ServerNameData(sni)})
		case tlsproto.ExtExtendedMasterSecret:
			if tr == TCP { // TLS 1.3-over-QUIC clients drop EMS
				exts = append(exts, tlsproto.Extension{Type: typ})
			}
		case tlsproto.ExtRenegotiationInfo:
			if tr == TCP {
				exts = append(exts, tlsproto.Extension{Type: typ, Data: tlsproto.RenegotiationInfoData()})
			}
		case tlsproto.ExtSupportedGroups:
			groups := tls.Groups
			if tls.Grease {
				groups = append([]uint16{wire.GreaseValue(greaseIdx + 2)}, groups...)
			}
			exts = append(exts, tlsproto.Extension{Type: typ, Data: tlsproto.Uint16ListData(groups)})
		case tlsproto.ExtECPointFormats:
			if tr == TCP {
				exts = append(exts, tlsproto.Extension{Type: typ, Data: tlsproto.ECPointFormatsData(tls.ECPointFmts)})
			}
		case tlsproto.ExtSessionTicket:
			if tr == TCP && ticket {
				exts = append(exts, tlsproto.Extension{Type: typ})
			}
		case tlsproto.ExtALPN:
			exts = append(exts, tlsproto.Extension{Type: typ, Data: tlsproto.ALPNData(alpn)})
		case tlsproto.ExtStatusRequest:
			exts = append(exts, tlsproto.Extension{Type: typ, Data: tlsproto.StatusRequestData()})
		case tlsproto.ExtSignatureAlgorithms:
			exts = append(exts, tlsproto.Extension{Type: typ, Data: tlsproto.Uint16ListData(tls.SigAlgs)})
		case tlsproto.ExtSCT:
			exts = append(exts, tlsproto.Extension{Type: typ})
		case tlsproto.ExtDelegatedCredentials:
			if len(tls.DelegatedCred) > 0 {
				exts = append(exts, tlsproto.Extension{Type: typ, Data: tlsproto.Uint16ListData(tls.DelegatedCred)})
			}
		case tlsproto.ExtKeyShare:
			shares := tls.KeyShares
			lens := tls.KeyShareLens
			if tls.Grease {
				shares = append([]uint16{wire.GreaseValue(greaseIdx + 2)}, shares...)
				lens = append([]int{1}, lens...)
			}
			// Real key-share payloads are random public keys.
			data := tlsproto.KeyShareData(shares, lens)
			for i := len(data) - 1; i >= len(data)-32 && i >= 0; i-- {
				data[i] = byte(rng.UintN(256))
			}
			exts = append(exts, tlsproto.Extension{Type: typ, Data: data})
		case tlsproto.ExtPSKKeyExchangeModes:
			exts = append(exts, tlsproto.Extension{Type: typ, Data: tlsproto.PSKKeyExchangeModesData(tls.PSKModes)})
		case tlsproto.ExtSupportedVersions:
			versions := tls.Versions
			if tr == QUIC {
				versions = []uint16{tlsproto.VersionTLS13}
			}
			if tls.Grease {
				versions = append([]uint16{wire.GreaseValue(greaseIdx + 3)}, versions...)
			}
			exts = append(exts, tlsproto.Extension{Type: typ, Data: tlsproto.SupportedVersionsData(versions)})
		case tlsproto.ExtCompressCertificate:
			if len(tls.CompressCert) > 0 {
				exts = append(exts, tlsproto.Extension{Type: typ, Data: tlsproto.CompressCertificateData(tls.CompressCert)})
			}
		case tlsproto.ExtRecordSizeLimit:
			if tls.RecordLimit > 0 {
				exts = append(exts, tlsproto.Extension{Type: typ, Data: tlsproto.RecordSizeLimitData(tls.RecordLimit)})
			}
		case tlsproto.ExtApplicationSettings:
			exts = append(exts, tlsproto.Extension{Type: typ, Data: tlsproto.ALPNData([]string{"h2"})})
		case tlsproto.ExtPadding:
			// handled below, after the total size is known
		}
	}

	if psk {
		earlyLen := 0
		exts = append(exts, tlsproto.Extension{Type: tlsproto.ExtEarlyData, Data: make([]byte, earlyLen)})
		// A plausible resumption ticket: identity + binder.
		idLen := 32 + rng.IntN(64)
		pskData := buildPSKData(rng, idLen)
		exts = append(exts, tlsproto.Extension{Type: tlsproto.ExtPreSharedKey, Data: pskData})
	}

	if opts.ECH {
		exts = append(exts, tlsproto.Extension{
			Type: tlsproto.ExtEncryptedClientHello, Data: buildECHData(rng)})
	}

	if tr == QUIC {
		tp := buildTransportParams(rng, p.QUIC, f)
		exts = append(exts, tlsproto.Extension{Type: tlsproto.ExtQUICTransportParams, Data: tp.Marshal()})
	}

	ch.Extensions = exts
	ch.SetLengths()
	if hasExt(tls.Extensions, tlsproto.ExtPadding) && tls.PadTo > 0 {
		// Pad the handshake message (its 4-byte header included) to PadTo.
		pad := tls.PadTo - (4 + ch.HandshakeLength) - 4 // 4 bytes of extension header
		if pad < 0 {
			pad = rng.IntN(32)
		}
		ch.Extensions = append(ch.Extensions, tlsproto.Extension{
			Type: tlsproto.ExtPadding, Data: tlsproto.PaddingData(pad)})
		ch.SetLengths()
	}
	return ch
}

func buildPSKData(rng *rand.Rand, idLen int) []byte {
	identity := randBytes(rng, idLen)
	// identities: u16 list of (u16 len, identity, u32 obfuscated age)
	out := []byte{byte((idLen + 6) >> 8), byte(idLen + 6)}
	out = append(out, byte(idLen>>8), byte(idLen))
	out = append(out, identity...)
	out = append(out, randBytes(rng, 4)...)
	// binders: u16 list of (u8 len, binder)
	out = append(out, 0, 33, 32)
	out = append(out, randBytes(rng, 32)...)
	return out
}

// echOuterName draws the fronting public name an ECH outer hello presents
// instead of the real SNI — the shared CDN front-ends real deployments use,
// deliberately matching no video provider.
func echOuterName(rng *rand.Rand) string {
	fronts := [...]string{
		"cloudflare-ech.com",
		"public.ech-front.net",
		"cdn-front.fastly-edge.com",
	}
	return fronts[rng.IntN(len(fronts))]
}

// buildECHData renders a plausible encrypted_client_hello extension payload
// (ECHClientHello, outer variant): HPKE cipher suite, config id, a 32-byte
// X25519 encapsulated key and an opaque ciphertext sized like a real inner
// hello. Observers (and our parsers) treat the payload as opaque.
func buildECHData(rng *rand.Rand) []byte {
	encLen := 32
	payloadLen := 100 + rng.IntN(101)
	out := make([]byte, 0, 1+4+1+2+encLen+2+payloadLen)
	out = append(out, 0)          // type: outer
	out = append(out, 0x00, 0x01) // kdf: HKDF-SHA256
	out = append(out, 0x00, 0x01) // aead: AES-128-GCM
	out = append(out, byte(rng.UintN(256)))
	out = append(out, byte(encLen>>8), byte(encLen))
	out = append(out, randBytes(rng, encLen)...)
	out = append(out, byte(payloadLen>>8), byte(payloadLen))
	out = append(out, randBytes(rng, payloadLen)...)
	return out
}

func buildTransportParams(rng *rand.Rand, q *QUICProfile, f *Flow) *quicproto.TransportParameters {
	order := q.ParamOrder
	if q.ShuffleOrder {
		order = append([]uint64{}, order...)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	tp := &quicproto.TransportParameters{}
	for _, id := range order {
		switch id {
		case quicproto.ParamMaxIdleTimeout:
			tp.AppendUint(id, q.MaxIdleTimeout)
		case quicproto.ParamMaxUDPPayloadSize:
			tp.AppendUint(id, q.MaxUDPPayload)
		case quicproto.ParamInitialMaxData:
			tp.AppendUint(id, q.InitialMaxData)
		case quicproto.ParamInitialMaxStreamDataBidiLocal:
			tp.AppendUint(id, q.BidiLocal)
		case quicproto.ParamInitialMaxStreamDataBidiRemote:
			tp.AppendUint(id, q.BidiRemote)
		case quicproto.ParamInitialMaxStreamDataUni:
			tp.AppendUint(id, q.Uni)
		case quicproto.ParamInitialMaxStreamsBidi:
			tp.AppendUint(id, q.StreamsBidi)
		case quicproto.ParamInitialMaxStreamsUni:
			tp.AppendUint(id, q.StreamsUni)
		case quicproto.ParamMaxAckDelay:
			if q.MaxAckDelay > 0 {
				tp.AppendUint(id, q.MaxAckDelay)
			}
		case quicproto.ParamActiveConnectionIDLimit:
			if q.ActiveCIDLimit > 0 {
				tp.AppendUint(id, q.ActiveCIDLimit)
			}
		case quicproto.ParamInitialSourceConnectionID:
			tp.AppendBytes(id, f.SCID)
		case quicproto.ParamMaxDatagramFrameSize:
			if q.MaxDatagram > 0 {
				tp.AppendUint(id, q.MaxDatagram)
			}
		case quicproto.ParamGreaseQuicBit:
			if q.GreaseQuicBit {
				tp.AppendBytes(id, nil)
			}
		case quicproto.ParamInitialRTT:
			if q.InitialRTT {
				tp.AppendUint(id, 100000+uint64(rng.UintN(50000)))
			}
		case quicproto.ParamGoogleConnectionOptions:
			if q.GoogleConnOpts != "" {
				tp.AppendBytes(id, []byte(q.GoogleConnOpts))
			}
		case quicproto.ParamUserAgent:
			if q.UserAgent != "" {
				tp.AppendBytes(id, []byte(q.UserAgent))
			}
		case quicproto.ParamGoogleVersion:
			if q.GoogleVersion != "" {
				tp.AppendBytes(id, []byte(q.GoogleVersion))
			}
		case quicproto.ParamVersionInformation:
			if q.VersionInfo {
				// chosen version + available versions
				tp.AppendBytes(id, []byte{0, 0, 0, 1, 0, 0, 0, 1})
			}
		}
	}
	// A GREASE transport parameter, as Chromium sends.
	if q.ShuffleOrder {
		greaseID := uint64(27 + 31*rng.UintN(100))
		tp.AppendBytes(greaseID, randBytes(rng, int(rng.UintN(8))))
	}
	return tp
}

func hasExt(exts []uint16, typ uint16) bool {
	for _, e := range exts {
		if e == typ {
			return true
		}
	}
	return false
}

// shuffledExts models Chromium's extension-order randomization: positions are
// permuted except that padding stays last.
func shuffledExts(rng *rand.Rand, order []uint16) []uint16 {
	out := make([]uint16, 0, len(order))
	var hasPadding bool
	for _, e := range order {
		if e == tlsproto.ExtPadding {
			hasPadding = true
			continue
		}
		out = append(out, e)
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	if hasPadding {
		out = append(out, tlsproto.ExtPadding)
	}
	return out
}

// providerALPN applies the small per-provider deltas observed between native
// apps: subscription apps negotiate h2 only, except Amazon's PC flows.
func providerALPN(alpn []string, prov Provider, key PlatformKey) []string {
	if key.Agent != NativeApp {
		return alpn
	}
	switch prov {
	case Netflix, Disney:
		return []string{"h2"}
	case Amazon:
		if key.Device == Windows || key.Device == MacOS {
			return []string{"h2", "http/1.1"}
		}
		return []string{"h2"}
	default:
		return alpn
	}
}

// serverName generates a realistic SNI for the provider's management or
// content servers, with shard-number randomness so server_name length varies.
func serverName(rng *rand.Rand, prov Provider, management bool) string {
	if management {
		switch prov {
		case YouTube:
			return "www.youtube.com"
		case Netflix:
			return "www.netflix.com"
		case Disney:
			return "www.disneyplus.com"
		default:
			return "www.primevideo.com"
		}
	}
	switch prov {
	case YouTube:
		shards := []string{"ntqe6ne7", "aigl6nsk", "q4fl6n66", "vgqsrnll", "p5qlsn6y"}
		return fmt.Sprintf("rr%d---sn-%s.googlevideo.com", 1+rng.IntN(9), shards[rng.IntN(len(shards))])
	case Netflix:
		return fmt.Sprintf("ipv4-c%03d-syd%03d-ix.1.oca.nflxvideo.net", rng.IntN(250), 1+rng.IntN(4))
	case Disney:
		regions := []string{"na-west-1", "na-east-1", "ap-south-1", "eu-west-2"}
		return fmt.Sprintf("vod-bgc-%s.media.dssott.com", regions[rng.IntN(len(regions))])
	default:
		return fmt.Sprintf("s3-dub-w%d.cf.dash.row.aiv-cdn.net", 1+rng.IntN(30))
	}
}

// driftTLS applies the open-set version drift: plausible changes a browser or
// OS update makes to the ClientHello, per platform family. Several drifts
// deliberately *reduce* inter-class distance (Edge adopting Chrome's
// compression list, Chrome-on-iOS converging on Safari), reproducing the
// paper's open-set accuracy drop and its confusion structure.
func driftTLS(rng *rand.Rand, tls TLSProfile, label string) TLSProfile {
	out := tls
	out.CipherSuites = append([]uint16{}, tls.CipherSuites...)
	switch {
	case strings.Contains(label, "edge"):
		// An Edge release reordered its certificate-compression list; the
		// new token is unseen at training time, weakening (not erasing)
		// the Chrome/Edge distinction. Roughly half the open-set flows come
		// from updated installs.
		if rng.Float64() < 0.5 {
			out.CompressCert = []uint16{3, 2}
		}
		out.TicketProb = 0.5
	case out.ShuffleExts: // Chromium family: a release dropped the CBC suites
		out.CipherSuites = dropSuites(out.CipherSuites, ecdheRSAAES128CBC, ecdheRSAAES256CBC)
		out.TicketProb *= 0.6
	case len(out.DelegatedCred) > 0: // Firefox: new sigalg pref order
		out.SigAlgs = append([]uint16{0x0806}, out.SigAlgs...)
		out.PadTo += 16
	case len(out.CompressCert) == 1 && out.CompressCert[0] == 1: // Apple stack
		out.Versions = []uint16{tlsproto.VersionTLS13, tlsproto.VersionTLS12, tlsproto.VersionTLS11}
		out.TicketProb *= 1.2
	default: // Schannel / BoringSSL natives: extra group
		out.Groups = append(append([]uint16{}, out.Groups...), groupSecp521r1)
	}
	return out
}

func dropSuites(suites []uint16, drop ...uint16) []uint16 {
	out := suites[:0]
	for _, s := range suites {
		keep := true
		for _, d := range drop {
			if s == d {
				keep = false
			}
		}
		if keep {
			out = append(out, s)
		}
	}
	return out
}

// driftQUIC applies open-set drift to QUIC parameters, again including
// convergent changes: the iOS update adopts the wired-MTU payload size
// macOS advertises, and Chrome-on-iOS reverts to the system idle timeout.
func driftQUIC(q *QUICProfile, label string, key PlatformKey) {
	q.MaxIdleTimeout += 15000
	q.InitialMaxData += q.InitialMaxData / 4
	if q.TargetSize < 1340 {
		q.TargetSize += 30
	}
	if key.Device == IOS {
		q.MaxUDPPayload = 1472
		if strings.HasPrefix(label, "iOS_chrome") {
			q.MaxIdleTimeout = 96000 + 15000
		}
	}
}
