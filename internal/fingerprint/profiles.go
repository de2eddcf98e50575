package fingerprint

import (
	"videoplat/internal/quicproto"
	"videoplat/internal/tlsproto"
)

// TCPProfile describes a platform's TCP stack parameters as seen on the SYN
// of a video flow (attributes t1–t14 of Table 2).
type TCPProfile struct {
	TTL        uint8
	Window     uint16
	WindowAlts []uint16 // alternate initial windows drawn per flow
	MSS        uint16
	WScale     int // -1 when the option is absent
	SACK       bool
	Timestamps bool
	ECN        bool // CWR+ECE set on SYN (ECN-setup, RFC 3168)
}

// TLSProfile is the template from which per-flow ClientHellos are drawn
// (mandatory fields m1–m5 and optional extensions o1–o23 of Table 2).
type TLSProfile struct {
	CipherSuites  []uint16
	Grease        bool // inject RFC 8701 GREASE into suites/extensions/groups
	ShuffleExts   bool // Chromium ≥110 randomizes extension order
	Extensions    []uint16
	Groups        []uint16
	SigAlgs       []uint16
	ECPointFmts   []byte
	ALPN          []string
	Versions      []uint16
	PSKModes      []byte
	CompressCert  []uint16 // nil = extension absent even if listed
	RecordLimit   uint16   // 0 = absent
	DelegatedCred []uint16
	PadTo         int     // pad the ClientHello record to this size; 0 = none
	TicketProb    float64 // probability session_ticket (empty) is present
	PSKProb       float64 // probability of a resumption psk + early_data
	SessionIDLen  int
	KeyShares     []uint16
	KeyShareLens  []int
}

// QUICProfile describes a platform's QUIC Initial behaviour (q1–q20).
type QUICProfile struct {
	ParamOrder   []uint64 // transport parameters in emission order
	ShuffleOrder bool     // Chromium randomizes transport-parameter order

	MaxIdleTimeout uint64
	MaxUDPPayload  uint64
	InitialMaxData uint64
	BidiLocal      uint64
	BidiRemote     uint64
	Uni            uint64
	StreamsBidi    uint64
	StreamsUni     uint64
	MaxAckDelay    uint64 // 0 = absent
	ActiveCIDLimit uint64 // 0 = absent
	MaxDatagram    uint64 // 0 = absent

	GreaseQuicBit  bool
	InitialRTT     bool
	GoogleConnOpts string // "" = absent
	UserAgent      string
	GoogleVersion  string
	VersionInfo    bool

	DCIDLen, SCIDLen int
	TargetSize       int // UDP payload size the client pads its Initial to
}

// Profile is the complete handshake model of one user platform.
type Profile struct {
	Key  PlatformKey
	TCPP TCPProfile
	TLS  TLSProfile
	QUIC *QUICProfile // nil when the platform never uses QUIC
}

// Cipher suite code points, named for readability of the profile tables.
const (
	tls13AES128          = 0x1301
	tls13AES256          = 0x1302
	tls13ChaCha          = 0x1303
	ecdheECDSAAES128GCM  = 0xc02b
	ecdheRSAAES128GCM    = 0xc02f
	ecdheECDSAAES256GCM  = 0xc02c
	ecdheRSAAES256GCM    = 0xc030
	ecdheECDSAChaCha     = 0xcca9
	ecdheRSAChaCha       = 0xcca8
	ecdheECDSAAES256CBC  = 0xc00a
	ecdheECDSAAES128CBC  = 0xc009
	ecdheRSAAES128CBC    = 0xc013
	ecdheRSAAES256CBC    = 0xc014
	rsaAES128GCM         = 0x009c
	rsaAES256GCM         = 0x009d
	rsaAES128CBC         = 0x002f
	rsaAES256CBC         = 0x0035
	rsaAES128CBCSHA256   = 0x003c
	rsaAES256CBCSHA256   = 0x003d
	ecdheRSAAES128CBC256 = 0xc027
	ecdheRSAAES256CBC384 = 0xc028
	ecdheECDSA3DES       = 0xc008
	ecdheRSA3DES         = 0xc012
	rsa3DES              = 0x000a
)

// Named groups and signature schemes.
const (
	groupX25519    = 0x001d
	groupSecp256r1 = 0x0017
	groupSecp384r1 = 0x0018
	groupSecp521r1 = 0x0019
	groupFFDHE2048 = 0x0100
	groupFFDHE3072 = 0x0101
)

var (
	chromiumSuites = []uint16{
		tls13AES128, tls13AES256, tls13ChaCha,
		ecdheECDSAAES128GCM, ecdheRSAAES128GCM, ecdheECDSAAES256GCM, ecdheRSAAES256GCM,
		ecdheECDSAChaCha, ecdheRSAChaCha,
		ecdheRSAAES128CBC, ecdheRSAAES256CBC,
		rsaAES128GCM, rsaAES256GCM, rsaAES128CBC, rsaAES256CBC,
	}
	firefoxSuites = []uint16{
		tls13AES128, tls13ChaCha, tls13AES256,
		ecdheECDSAAES128GCM, ecdheRSAAES128GCM, ecdheECDSAChaCha, ecdheRSAChaCha,
		ecdheECDSAAES256GCM, ecdheRSAAES256GCM,
		ecdheECDSAAES256CBC, ecdheECDSAAES128CBC, ecdheRSAAES128CBC, ecdheRSAAES256CBC,
		rsaAES128GCM, rsaAES256GCM, rsaAES128CBC, rsaAES256CBC,
	}
	appleSuites = []uint16{
		tls13AES128, tls13AES256, tls13ChaCha,
		ecdheECDSAAES256GCM, ecdheECDSAAES128GCM, ecdheECDSAChaCha,
		ecdheRSAAES256GCM, ecdheRSAAES128GCM, ecdheRSAChaCha,
		ecdheECDSAAES256CBC, ecdheECDSAAES128CBC, ecdheRSAAES256CBC, ecdheRSAAES128CBC,
		rsaAES256GCM, rsaAES128GCM, rsaAES256CBC, rsaAES128CBC,
		ecdheECDSA3DES, ecdheRSA3DES, rsa3DES,
	}
	schannelSuites = []uint16{
		tls13AES256, tls13AES128, tls13ChaCha,
		ecdheRSAAES256GCM, ecdheRSAAES128GCM,
		ecdheRSAAES256CBC384, ecdheRSAAES128CBC256,
		ecdheRSAAES256CBC, ecdheRSAAES128CBC,
		rsaAES256GCM, rsaAES128GCM, rsaAES256CBCSHA256, rsaAES128CBCSHA256,
		rsaAES256CBC, rsaAES128CBC,
	}
	boringNativeSuites = []uint16{
		tls13AES128, tls13AES256, tls13ChaCha,
		ecdheECDSAAES128GCM, ecdheRSAAES128GCM, ecdheECDSAAES256GCM, ecdheRSAAES256GCM,
		ecdheECDSAChaCha, ecdheRSAChaCha,
		rsaAES128GCM, rsaAES256GCM, rsaAES128CBC, rsaAES256CBC,
	}
	playstationSuites = []uint16{
		tls13AES128, tls13AES256, tls13ChaCha,
		ecdheECDSAAES256GCM, ecdheRSAAES256GCM, ecdheECDSAAES128GCM, ecdheRSAAES128GCM,
		rsaAES256GCM, rsaAES128GCM, rsaAES256CBC, rsaAES128CBC,
	}

	chromiumSigAlgs = []uint16{0x0403, 0x0804, 0x0401, 0x0503, 0x0805, 0x0501, 0x0806, 0x0601}
	firefoxSigAlgs  = []uint16{0x0403, 0x0503, 0x0603, 0x0804, 0x0805, 0x0806, 0x0401, 0x0501, 0x0601, 0x0203, 0x0201}
	appleSigAlgs    = []uint16{0x0403, 0x0804, 0x0401, 0x0503, 0x0203, 0x0805, 0x0501, 0x0806, 0x0601, 0x0201}
	schannelSigAlgs = []uint16{0x0804, 0x0403, 0x0805, 0x0503, 0x0806, 0x0603, 0x0401, 0x0501, 0x0601, 0x0203, 0x0201}
	psSigAlgs       = []uint16{0x0403, 0x0503, 0x0401, 0x0501, 0x0601}

	chromiumGroups = []uint16{groupX25519, groupSecp256r1, groupSecp384r1}
	firefoxGroups  = []uint16{groupX25519, groupSecp256r1, groupSecp384r1, groupSecp521r1, groupFFDHE2048, groupFFDHE3072}
	appleGroups    = []uint16{groupX25519, groupSecp256r1, groupSecp384r1, groupSecp521r1}
	schannelGroups = []uint16{groupX25519, groupSecp256r1, groupSecp384r1}
	psGroups       = []uint16{groupX25519, groupSecp256r1}

	browserALPN = []string{"h2", "http/1.1"}
	h2OnlyALPN  = []string{"h2"}

	tls13And12 = []uint16{tlsproto.VersionTLS13, tlsproto.VersionTLS12}
)

// Canonical extension orders. Chromium's is shuffled per flow (ShuffleExts);
// the others are fixed, which is itself a fingerprint.
var (
	chromiumExts = []uint16{
		tlsproto.ExtServerName, tlsproto.ExtExtendedMasterSecret,
		tlsproto.ExtRenegotiationInfo, tlsproto.ExtSupportedGroups,
		tlsproto.ExtECPointFormats, tlsproto.ExtSessionTicket,
		tlsproto.ExtALPN, tlsproto.ExtStatusRequest,
		tlsproto.ExtSignatureAlgorithms, tlsproto.ExtSCT,
		tlsproto.ExtKeyShare, tlsproto.ExtPSKKeyExchangeModes,
		tlsproto.ExtSupportedVersions, tlsproto.ExtCompressCertificate,
		tlsproto.ExtApplicationSettings, tlsproto.ExtPadding,
	}
	firefoxExts = []uint16{
		tlsproto.ExtServerName, tlsproto.ExtExtendedMasterSecret,
		tlsproto.ExtRenegotiationInfo, tlsproto.ExtSupportedGroups,
		tlsproto.ExtECPointFormats, tlsproto.ExtSessionTicket,
		tlsproto.ExtALPN, tlsproto.ExtStatusRequest,
		tlsproto.ExtDelegatedCredentials, tlsproto.ExtKeyShare,
		tlsproto.ExtSupportedVersions, tlsproto.ExtSignatureAlgorithms,
		tlsproto.ExtPSKKeyExchangeModes, tlsproto.ExtRecordSizeLimit,
		tlsproto.ExtPadding,
	}
	appleExts = []uint16{
		tlsproto.ExtServerName, tlsproto.ExtExtendedMasterSecret,
		tlsproto.ExtRenegotiationInfo, tlsproto.ExtSupportedGroups,
		tlsproto.ExtECPointFormats, tlsproto.ExtALPN,
		tlsproto.ExtStatusRequest, tlsproto.ExtSCT,
		tlsproto.ExtKeyShare, tlsproto.ExtPSKKeyExchangeModes,
		tlsproto.ExtSupportedVersions, tlsproto.ExtCompressCertificate,
		tlsproto.ExtPadding,
	}
	schannelExts = []uint16{
		tlsproto.ExtServerName, tlsproto.ExtStatusRequest,
		tlsproto.ExtSupportedGroups, tlsproto.ExtECPointFormats,
		tlsproto.ExtSignatureAlgorithms, tlsproto.ExtSessionTicket,
		tlsproto.ExtALPN, tlsproto.ExtExtendedMasterSecret,
		tlsproto.ExtSupportedVersions, tlsproto.ExtKeyShare,
		tlsproto.ExtPSKKeyExchangeModes, tlsproto.ExtRenegotiationInfo,
	}
	boringNativeExts = []uint16{
		tlsproto.ExtServerName, tlsproto.ExtExtendedMasterSecret,
		tlsproto.ExtRenegotiationInfo, tlsproto.ExtSupportedGroups,
		tlsproto.ExtECPointFormats, tlsproto.ExtALPN,
		tlsproto.ExtStatusRequest, tlsproto.ExtSignatureAlgorithms,
		tlsproto.ExtKeyShare, tlsproto.ExtPSKKeyExchangeModes,
		tlsproto.ExtSupportedVersions,
	}
	psExts = []uint16{
		tlsproto.ExtServerName, tlsproto.ExtSupportedGroups,
		tlsproto.ExtECPointFormats, tlsproto.ExtSignatureAlgorithms,
		tlsproto.ExtALPN, tlsproto.ExtExtendedMasterSecret,
		tlsproto.ExtSupportedVersions, tlsproto.ExtKeyShare,
		tlsproto.ExtPSKKeyExchangeModes, tlsproto.ExtSessionTicket,
	}
)

// TCP stacks per OS family.
var (
	windowsTCP = TCPProfile{TTL: 128, Window: 64240, WindowAlts: []uint16{65535, 64240, 8192},
		MSS: 1460, WScale: 8, SACK: true, Timestamps: false, ECN: false}
	macTCP = TCPProfile{TTL: 64, Window: 65535, WindowAlts: []uint16{65535, 65535, 65535},
		MSS: 1460, WScale: 6, SACK: true, Timestamps: true, ECN: true}
	iosTCP = TCPProfile{TTL: 64, Window: 65535, WindowAlts: []uint16{65535, 65535, 65535},
		MSS: 1440, WScale: 6, SACK: true, Timestamps: true, ECN: true}
	androidTCP = TCPProfile{TTL: 64, Window: 65535, WindowAlts: []uint16{65535, 62720, 65535},
		MSS: 1400, WScale: 7, SACK: true, Timestamps: true, ECN: false}
	androidTVTCP = TCPProfile{TTL: 64, Window: 62720, WindowAlts: []uint16{62720, 65535},
		MSS: 1460, WScale: 7, SACK: true, Timestamps: true, ECN: false}
	psTCP = TCPProfile{TTL: 64, Window: 32768, WindowAlts: []uint16{32768, 65535},
		MSS: 1460, WScale: 5, SACK: true, Timestamps: false, ECN: false}
)

// QUIC profiles. Only YouTube uses QUIC, and only on the 12 platforms of
// Fig 12(a).
func chromiumQUIC(ua string) *QUICProfile {
	return &QUICProfile{
		ParamOrder: []uint64{
			quicproto.ParamMaxIdleTimeout, quicproto.ParamMaxUDPPayloadSize,
			quicproto.ParamInitialMaxData, quicproto.ParamInitialMaxStreamDataBidiLocal,
			quicproto.ParamInitialMaxStreamDataBidiRemote, quicproto.ParamInitialMaxStreamDataUni,
			quicproto.ParamInitialMaxStreamsBidi, quicproto.ParamInitialMaxStreamsUni,
			quicproto.ParamMaxAckDelay, quicproto.ParamActiveConnectionIDLimit,
			quicproto.ParamInitialSourceConnectionID, quicproto.ParamMaxDatagramFrameSize,
			quicproto.ParamGoogleConnectionOptions, quicproto.ParamUserAgent,
			quicproto.ParamGoogleVersion, quicproto.ParamVersionInformation,
		},
		ShuffleOrder:   true,
		MaxIdleTimeout: 30000, MaxUDPPayload: 1472,
		InitialMaxData: 15728640, BidiLocal: 6291456, BidiRemote: 6291456, Uni: 6291456,
		StreamsBidi: 100, StreamsUni: 103, MaxAckDelay: 25, ActiveCIDLimit: 8,
		MaxDatagram: 65536, GoogleConnOpts: "RVCM", UserAgent: ua,
		GoogleVersion: "Q050", VersionInfo: true,
		DCIDLen: 8, SCIDLen: 0, TargetSize: 1250,
	}
}

func firefoxQUIC() *QUICProfile {
	return &QUICProfile{
		ParamOrder: []uint64{
			quicproto.ParamInitialMaxStreamDataBidiLocal, quicproto.ParamInitialMaxStreamDataBidiRemote,
			quicproto.ParamInitialMaxStreamDataUni, quicproto.ParamInitialMaxData,
			quicproto.ParamInitialMaxStreamsBidi, quicproto.ParamInitialMaxStreamsUni,
			quicproto.ParamMaxIdleTimeout, quicproto.ParamMaxUDPPayloadSize,
			quicproto.ParamActiveConnectionIDLimit, quicproto.ParamInitialSourceConnectionID,
			quicproto.ParamMaxDatagramFrameSize, quicproto.ParamGreaseQuicBit,
		},
		MaxIdleTimeout: 600000, MaxUDPPayload: 65527,
		InitialMaxData: 25165824, BidiLocal: 12582912, BidiRemote: 1048576, Uni: 1048576,
		StreamsBidi: 16, StreamsUni: 16, ActiveCIDLimit: 8,
		MaxDatagram: 65536, GreaseQuicBit: true,
		DCIDLen: 8, SCIDLen: 3, TargetSize: 1357,
	}
}

func appleQUIC() *QUICProfile {
	return &QUICProfile{
		ParamOrder: []uint64{
			quicproto.ParamMaxIdleTimeout, quicproto.ParamMaxUDPPayloadSize,
			quicproto.ParamInitialMaxData, quicproto.ParamInitialMaxStreamDataBidiLocal,
			quicproto.ParamInitialMaxStreamDataBidiRemote, quicproto.ParamInitialMaxStreamDataUni,
			quicproto.ParamInitialMaxStreamsBidi, quicproto.ParamInitialMaxStreamsUni,
			quicproto.ParamActiveConnectionIDLimit, quicproto.ParamInitialSourceConnectionID,
		},
		MaxIdleTimeout: 96000, MaxUDPPayload: 1452,
		InitialMaxData: 2097152, BidiLocal: 2097152, BidiRemote: 1048576, Uni: 1048576,
		StreamsBidi: 100, StreamsUni: 100, ActiveCIDLimit: 4,
		DCIDLen: 8, SCIDLen: 8, TargetSize: 1280,
	}
}

// cronetQUIC models the Google-internal (Cronet) stack of the YouTube native
// apps, which carries app-identifying user_agent and initial_rtt parameters.
func cronetQUIC(ua string) *QUICProfile {
	q := chromiumQUIC(ua)
	q.ShuffleOrder = false
	q.InitialRTT = true
	q.ParamOrder = append(q.ParamOrder, quicproto.ParamInitialRTT)
	q.TargetSize = 1350
	q.StreamsUni = 100
	q.MaxDatagram = 0 // Cronet leaves datagrams disabled
	return q
}

// profiles is the table of all 17 concrete user platforms.
var profiles = buildProfiles()

func buildProfiles() map[string]*Profile {
	m := map[string]*Profile{}
	add := func(p *Profile) { m[p.Key.Label()] = p }

	chromiumTLS := func(padTo int) TLSProfile {
		return TLSProfile{
			CipherSuites: chromiumSuites, Grease: true, ShuffleExts: true,
			Extensions: chromiumExts, Groups: chromiumGroups, SigAlgs: chromiumSigAlgs,
			ECPointFmts: []byte{0}, ALPN: browserALPN, Versions: tls13And12,
			PSKModes: []byte{1}, CompressCert: []uint16{2},
			PadTo: padTo, TicketProb: 0.5, PSKProb: 0.35, SessionIDLen: 32,
			KeyShares: []uint16{groupX25519}, KeyShareLens: []int{32},
		}
	}
	firefoxTLS := TLSProfile{
		CipherSuites: firefoxSuites, Extensions: firefoxExts,
		Groups: firefoxGroups, SigAlgs: firefoxSigAlgs,
		ECPointFmts: []byte{0, 1, 2}, ALPN: browserALPN, Versions: tls13And12,
		PSKModes: []byte{1}, RecordLimit: 16385,
		DelegatedCred: []uint16{0x0403, 0x0503, 0x0603, 0x0203},
		PadTo:         512, TicketProb: 0.4, PSKProb: 0.25, SessionIDLen: 32,
		KeyShares: []uint16{groupX25519, groupSecp256r1}, KeyShareLens: []int{32, 65},
	}
	appleTLS := TLSProfile{
		CipherSuites: appleSuites, Grease: true, Extensions: appleExts,
		Groups: appleGroups, SigAlgs: appleSigAlgs,
		ECPointFmts: []byte{0}, ALPN: browserALPN, Versions: tls13And12,
		PSKModes: []byte{1}, CompressCert: []uint16{1}, // zlib
		PadTo: 512, TicketProb: 0.45, PSKProb: 0.3, SessionIDLen: 32,
		KeyShares: []uint16{groupX25519}, KeyShareLens: []int{32},
	}
	schannelTLS := TLSProfile{
		CipherSuites: schannelSuites, Extensions: schannelExts,
		Groups: schannelGroups, SigAlgs: schannelSigAlgs,
		ECPointFmts: []byte{0}, ALPN: h2OnlyALPN, Versions: tls13And12,
		PSKModes: []byte{1}, TicketProb: 0.6, PSKProb: 0.2, SessionIDLen: 32,
		KeyShares: []uint16{groupX25519, groupSecp256r1}, KeyShareLens: []int{32, 65},
	}
	boringTLS := TLSProfile{
		CipherSuites: boringNativeSuites, Extensions: boringNativeExts,
		Groups: chromiumGroups, SigAlgs: chromiumSigAlgs,
		ECPointFmts: []byte{0}, ALPN: h2OnlyALPN, Versions: tls13And12,
		PSKModes: []byte{1}, TicketProb: 0.55, PSKProb: 0.3, SessionIDLen: 0,
		KeyShares: []uint16{groupX25519}, KeyShareLens: []int{32},
	}
	psTLS := TLSProfile{
		CipherSuites: playstationSuites, Extensions: psExts,
		Groups: psGroups, SigAlgs: psSigAlgs,
		ECPointFmts: []byte{0}, ALPN: h2OnlyALPN, Versions: tls13And12,
		PSKModes: []byte{1}, TicketProb: 0.7, PSKProb: 0.1, SessionIDLen: 0,
		KeyShares: []uint16{groupX25519}, KeyShareLens: []int{32},
	}

	// --- Windows ---
	add(&Profile{Key: PlatformKey{WindowsChrome, ""}, TCPP: windowsTCP,
		TLS:  chromiumTLS(517),
		QUIC: chromiumQUIC("Chrome/121.0.6167.185 Windows NT 10.0; Win64; x64")})
	edgeWinTLS := chromiumTLS(517)
	edgeWinTLS.TicketProb = 0.65             // Edge keeps session tickets longer
	edgeWinTLS.CompressCert = []uint16{2, 3} // Edge advertises brotli+zstd
	add(&Profile{Key: PlatformKey{WindowsEdge, ""}, TCPP: windowsTCP,
		TLS:  edgeWinTLS,
		QUIC: chromiumQUIC("Edg/121.0.2277.128 Windows NT 10.0; Win64; x64")})
	add(&Profile{Key: PlatformKey{WindowsFirefox, ""}, TCPP: windowsTCP,
		TLS:  firefoxTLS,
		QUIC: firefoxQUIC()})
	add(&Profile{Key: PlatformKey{WindowsNative, ""}, TCPP: windowsTCP,
		TLS: schannelTLS})

	// --- macOS ---
	macSafariQUIC := appleQUIC()
	macSafariQUIC.MaxUDPPayload = 1472 // wired-MTU default; iOS advertises 1452
	add(&Profile{Key: PlatformKey{MacSafari, ""}, TCPP: macTCP,
		TLS:  appleTLS,
		QUIC: macSafariQUIC})
	macChromeQUIC := chromiumQUIC("Chrome/121.0.6167.184 Intel Mac OS X 14_3_1")
	add(&Profile{Key: PlatformKey{MacChrome, ""}, TCPP: macTCP,
		TLS:  chromiumTLS(517),
		QUIC: macChromeQUIC})
	macEdgeTLS := chromiumTLS(517)
	macEdgeTLS.TicketProb = 0.65
	macEdgeTLS.CompressCert = []uint16{2, 3}
	add(&Profile{Key: PlatformKey{MacEdge, ""}, TCPP: macTCP,
		TLS:  macEdgeTLS,
		QUIC: chromiumQUIC("Edg/121.0.2277.128 Intel Mac OS X 14_3_1")})
	macFirefoxQUIC := firefoxQUIC()
	add(&Profile{Key: PlatformKey{MacFirefox, ""}, TCPP: macTCP,
		TLS:  firefoxTLS,
		QUIC: macFirefoxQUIC})
	macNativeTLS := appleTLS // Amazon's mac app rides the system TLS stack
	macNativeTLS.ALPN = h2OnlyALPN
	macNativeTLS.CompressCert = nil
	macNativeTLS.TicketProb = 0.8
	add(&Profile{Key: PlatformKey{MacNative, ""}, TCPP: macTCP,
		TLS: macNativeTLS})

	// --- Android ---
	androidChromeTLS := chromiumTLS(517)
	add(&Profile{Key: PlatformKey{AndroidChrome, ""}, TCPP: androidTCP,
		TLS:  androidChromeTLS,
		QUIC: chromiumQUIC("Chrome/121.0.6167.178 Linux; Android 14; Pixel 7")})
	samsungTLS := chromiumTLS(517)
	samsungTLS.ShuffleExts = false // Samsung Internet predates order randomization
	samsungTLS.Extensions = removeExt(chromiumExts, tlsproto.ExtApplicationSettings)
	samsungTLS.TicketProb = 0.5
	add(&Profile{Key: PlatformKey{AndroidSamsung, ""}, TCPP: androidTCP,
		TLS: samsungTLS})
	androidNativeTLS := boringTLS
	add(&Profile{Key: PlatformKey{AndroidNative, ""}, TCPP: androidTCP,
		TLS:  androidNativeTLS,
		QUIC: cronetQUIC("com.google.android.youtube/19.05.36 Linux; Android 14")})

	// --- iOS ---
	add(&Profile{Key: PlatformKey{IOSSafari, ""}, TCPP: iosTCP,
		TLS:  appleTLS,
		QUIC: appleQUIC()})
	// Chrome on iOS is a WebKit shell: its TLS stack is Apple's, with only
	// minor deltas — the root cause of the paper's iOS confusions.
	iosChromeTLS := appleTLS
	iosChromeTLS.TicketProb = 0.5
	iosChromeTLS.PadTo = 508 // Chrome-on-iOS pads records slightly differently
	iosChromeQUIC := appleQUIC()
	iosChromeQUIC.MaxIdleTimeout = 30000
	add(&Profile{Key: PlatformKey{IOSChrome, ""}, TCPP: iosTCP,
		TLS:  iosChromeTLS,
		QUIC: iosChromeQUIC})
	iosNativeTLS := appleTLS
	iosNativeTLS.ALPN = h2OnlyALPN
	iosNativeTLS.SessionIDLen = 0
	add(&Profile{Key: PlatformKey{IOSNative, ""}, TCPP: iosTCP,
		TLS:  iosNativeTLS,
		QUIC: cronetQUIC("com.google.ios.youtube/19.06.2 iPhone14,5; iOS 17_3")})

	// --- TVs ---
	tvTLS := boringTLS
	tvTLS.Extensions = append(append([]uint16{}, boringNativeExts...), tlsproto.ExtSCT)
	tvTLS.TicketProb = 0.75
	add(&Profile{Key: PlatformKey{AndroidTV, "androidTV"}, TCPP: androidTVTCP,
		TLS: tvTLS})
	add(&Profile{Key: PlatformKey{PlayStation, "ps5"}, TCPP: psTCP,
		TLS: psTLS})

	return m
}

func removeExt(exts []uint16, typ uint16) []uint16 {
	out := make([]uint16, 0, len(exts))
	for _, e := range exts {
		if e != typ {
			out = append(out, e)
		}
	}
	return out
}

// AllPlatformLabels lists the 17 concrete platforms in a stable order.
func AllPlatformLabels() []string {
	return []string{
		"windows_chrome", "windows_edge", "windows_firefox", "windows_nativeApp",
		"macOS_safari", "macOS_chrome", "macOS_edge", "macOS_firefox", "macOS_nativeApp",
		"android_chrome", "android_samsungInternet", "android_nativeApp",
		"iOS_safari", "iOS_chrome", "iOS_nativeApp",
		"androidTV_nativeApp", "ps5_nativeApp",
	}
}

// SupportMatrix reproduces Table 1: which (platform, provider) combinations
// exist, i.e. which apps/browsers the provider supports.
func SupportMatrix(label string, prov Provider) bool {
	switch label {
	case "windows_chrome", "windows_edge", "windows_firefox",
		"macOS_safari", "macOS_chrome", "macOS_edge", "macOS_firefox":
		return true // all four providers work in PC browsers
	case "windows_nativeApp":
		return prov != YouTube // no YouTube desktop app
	case "macOS_nativeApp":
		return prov == Amazon // only Amazon ships a mac app in Table 1
	case "android_chrome", "android_samsungInternet", "iOS_safari", "iOS_chrome":
		return prov == YouTube // mobile browsers only carry YouTube in Table 1
	case "android_nativeApp", "iOS_nativeApp", "androidTV_nativeApp", "ps5_nativeApp":
		return true
	}
	return false
}

// SupportsQUIC reproduces Fig 12(a)'s platform list: only YouTube uses QUIC,
// on every platform whose profile has QUIC keys.
func SupportsQUIC(label string, prov Provider) bool {
	if prov != YouTube {
		return false
	}
	p := profiles[label]
	return p != nil && p.QUIC != nil
}

// SupportsTCP reproduces Fig 12(b)'s platform list: the YouTube Android
// native app (Cronet) is QUIC-only, so 14 platforms appear for YT over TCP.
func SupportsTCP(label string, prov Provider) bool {
	return !(label == "android_nativeApp" && prov == YouTube)
}
