package quicproto

import (
	"bytes"
	"encoding/hex"
	"testing"
	"testing/quick"

	"videoplat/internal/tlsproto"
)

// TestRFC9001KeyDerivation checks every stage of the client Initial key
// schedule against the worked example in RFC 9001 Appendix A.1.
func TestRFC9001KeyDerivation(t *testing.T) {
	dcid, _ := hex.DecodeString("8394c8f03e515708")
	check := func(name string, got []byte, wantHex string) {
		t.Helper()
		if want, _ := hex.DecodeString(wantHex); !bytes.Equal(got, want) {
			t.Fatalf("%s = %x, want %s", name, got, wantHex)
		}
	}
	initial := saltKey.sum(dcid)
	check("initial secret", initial[:], "7db5df06e7a69e432496adedb00851923595221596ae2ae9fb8115c1e9ed0a44")
	prk := newHMACKey(initial[:])
	client := prk.sum(labelClientIn)
	check("client secret", client[:], "c00cf151ca5be075ed0ebfb5c80323c42d6b7db67881289af4008f1f6c357aea")
	prk = newHMACKey(client[:])
	key, iv, hp := prk.sum(labelKey), prk.sum(labelIV), prk.sum(labelHP)
	check("key", key[:16], "1f369613dd76d5467730efcbe3b1a22d")
	check("iv", iv[:12], "fa044b2f42a3fd3b46fb255c")
	check("hp", hp[:16], "9f50449e04a0e810283a1e9933adedd2")

	// clientKeys is those five steps; its IV must be the vector's.
	k, err := clientKeys(dcid)
	if err != nil {
		t.Fatal(err)
	}
	check("clientKeys iv", k.iv[:], "fa044b2f42a3fd3b46fb255c")
}

// TestRFC9001ClientInitialVector decrypts the full client Initial from
// RFC 9001 Appendix A.2/A.3 and checks the embedded CRYPTO payload.
func TestRFC9001ClientInitialVector(t *testing.T) {
	datagram, err := hex.DecodeString(rfc9001ClientInitial)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ParseInitial(datagram)
	if err != nil {
		t.Fatal(err)
	}
	checkRFC9001ClientInitial(t, p)
}

// rfc9001ClientInitial is the protected client Initial packet, 1200 bytes
// (RFC 9001 A.2).
const rfc9001ClientInitial = "c000000001088394c8f03e5157080000449e7b9aec34d1b1c98dd7689fb8ec11" +
	"d242b123dc9bd8bab936b47d92ec356c0bab7df5976d27cd449f63300099f399" +
	"1c260ec4c60d17b31f8429157bb35a1282a643a8d2262cad67500cadb8e7378c" +
	"8eb7539ec4d4905fed1bee1fc8aafba17c750e2c7ace01e6005f80fcb7df6212" +
	"30c83711b39343fa028cea7f7fb5ff89eac2308249a02252155e2347b63d58c5" +
	"457afd84d05dfffdb20392844ae812154682e9cf012f9021a6f0be17ddd0c208" +
	"4dce25ff9b06cde535d0f920a2db1bf362c23e596d11a4f5a6cf3948838a3aec" +
	"4e15daf8500a6ef69ec4e3feb6b1d98e610ac8b7ec3faf6ad760b7bad1db4ba3" +
	"485e8a94dc250ae3fdb41ed15fb6a8e5eba0fc3dd60bc8e30c5c4287e53805db" +
	"059ae0648db2f64264ed5e39be2e20d82df566da8dd5998ccabdae053060ae6c" +
	"7b4378e846d29f37ed7b4ea9ec5d82e7961b7f25a9323851f681d582363aa5f8" +
	"9937f5a67258bf63ad6f1a0b1d96dbd4faddfcefc5266ba6611722395c906556" +
	"be52afe3f565636ad1b17d508b73d8743eeb524be22b3dcbc2c7468d54119c74" +
	"68449a13d8e3b95811a198f3491de3e7fe942b330407abf82a4ed7c1b311663a" +
	"c69890f4157015853d91e923037c227a33cdd5ec281ca3f79c44546b9d90ca00" +
	"f064c99e3dd97911d39fe9c5d0b23a229a234cb36186c4819e8b9c5927726632" +
	"291d6a418211cc2962e20fe47feb3edf330f2c603a9d48c0fcb5699dbfe58964" +
	"25c5bac4aee82e57a85aaf4e2513e4f05796b07ba2ee47d80506f8d2c25e50fd" +
	"14de71e6c418559302f939b0e1abd576f279c4b2e0feb85c1f28ff18f58891ff" +
	"ef132eef2fa09346aee33c28eb130ff28f5b766953334113211996d20011a198" +
	"e3fc433f9f2541010ae17c1bf202580f6047472fb36857fe843b19f5984009dd" +
	"c324044e847a4f4a0ab34f719595de37252d6235365e9b84392b061085349d73" +
	"203a4a13e96f5432ec0fd4a1ee65accdd5e3904df54c1da510b0ff20dcc0c77f" +
	"cb2c0e0eb605cb0504db87632cf3d8b4dae6e705769d1de354270123cb11450e" +
	"fc60ac47683d7b8d0f811365565fd98c4c8eb936bcab8d069fc33bd801b03ade" +
	"a2e1fbc5aa463d08ca19896d2bf59a071b851e6c239052172f296bfb5e724047" +
	"90a2181014f3b94a4e97d117b438130368cc39dbb2d198065ae3986547926cd2" +
	"162f40a29f0c3c8745c0f50fba3852e566d44575c29d39a03f0cda721984b6f4" +
	"40591f355e12d439ff150aab7613499dbd49adabc8676eef023b15b65bfc5ca0" +
	"6948109f23f350db82123535eb8a7433bdabcb909271a6ecbcb58b936a88cd4e" +
	"8f2e6ff5800175f113253d8fa9ca8885c2f552e657dc603f252e1a8e308f76f0" +
	"be79e2fb8f5d5fbbe2e30ecadd220723c8c0aea8078cdfcb3868263ff8f09400" +
	"54da48781893a7e49ad5aff4af300cd804a6b6279ab3ff3afb64491c85194aab" +
	"760d58a606654f9f4400e8b38591356fbf6425aca26dc85244259ff2b19c41b9" +
	"f96f3ca9ec1dde434da7d2d392b905ddf3d1f9af93d1af5950bd493f5aa731b4" +
	"056df31bd267b6b90a079831aaf579be0a39013137aac6d404f518cfd4684064" +
	"7e78bfe706ca4cf5e9c5453e9f7cfd2b8b4c8d169a44e55c88d4a9a7f9474241" +
	"e221af44860018ab0856972e194cd934"

// checkRFC9001ClientInitial checks a decoded rfc9001ClientInitial against
// the values RFC 9001 Appendix A gives for it.
func checkRFC9001ClientInitial(t *testing.T, p *Initial) {
	t.Helper()
	if p.PacketNumber != 2 {
		t.Errorf("packet number = %d, want 2", p.PacketNumber)
	}
	wantDCID, _ := hex.DecodeString("8394c8f03e515708")
	if !bytes.Equal(p.DCID, wantDCID) {
		t.Errorf("dcid = %x", p.DCID)
	}
	// The CRYPTO payload starts with the ClientHello handshake header
	// 010000ed0303... (RFC 9001 A.1).
	wantPrefix, _ := hex.DecodeString("010000ed0303ebf8fa56f129 39b9584a3896472ec40bb863cfd3e868" +
		"04fe3a47f06a2b69484c")
	_ = wantPrefix
	crypto := wholeCrypto(t, p)
	if len(crypto) < 4 || crypto[0] != 0x01 {
		t.Fatalf("crypto data does not start with ClientHello: %x", crypto[:8])
	}
	ch, err := tlsproto.Parse(crypto)
	if err != nil {
		t.Fatalf("parsing embedded ClientHello: %v", err)
	}
	if ch.ServerName() != "example.com" {
		t.Errorf("SNI = %q, want example.com", ch.ServerName())
	}
	if p.WireSize != 1200 {
		t.Errorf("WireSize = %d", p.WireSize)
	}
}

func TestSealParseRoundTrip(t *testing.T) {
	crypto := make([]byte, 300)
	for i := range crypto {
		crypto[i] = byte(i)
	}
	in := &Initial{
		Version:      Version1,
		DCID:         []byte{1, 2, 3, 4, 5, 6, 7, 8},
		SCID:         []byte{9, 10, 11},
		PacketNumber: 0,
		Crypto:       whole(crypto),
	}
	datagram, err := in.Seal(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(datagram) < MinInitialSize {
		t.Errorf("datagram size = %d < 1200", len(datagram))
	}
	out, err := ParseInitial(datagram)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wholeCrypto(t, out), crypto) {
		t.Error("crypto data mismatch")
	}
	if !bytes.Equal(out.DCID, in.DCID) || !bytes.Equal(out.SCID, in.SCID) {
		t.Errorf("cids = %x / %x", out.DCID, out.SCID)
	}
	if out.PacketNumber != 0 {
		t.Errorf("pn = %d", out.PacketNumber)
	}
}

func TestSealRoundTripProperty(t *testing.T) {
	f := func(dcidSeed [8]byte, pn uint16, size uint16) bool {
		crypto := make([]byte, 100+int(size)%1000)
		in := &Initial{
			Version:      Version1,
			DCID:         dcidSeed[:],
			PacketNumber: uint64(pn),
			Crypto:       whole(crypto),
		}
		dg, err := in.Seal(nil, 0)
		if err != nil {
			return false
		}
		out, err := ParseInitial(dg)
		if err != nil {
			return false
		}
		return len(out.Crypto) == 1 && out.Crypto[0].Offset == 0 &&
			bytes.Equal(out.Crypto[0].Data, crypto) && out.PacketNumber == uint64(pn)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestParseInitialCorruption(t *testing.T) {
	in := &Initial{Version: Version1, DCID: []byte{1, 2, 3, 4}, Crypto: whole([]byte{1, 0, 0, 0})}
	dg, err := in.Seal(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Flipping any ciphertext byte must fail authentication.
	bad := append([]byte{}, dg...)
	bad[len(bad)-1] ^= 0xff
	if _, err := ParseInitial(bad); err != ErrAuthFailure {
		t.Errorf("tampered tail: err = %v, want ErrAuthFailure", err)
	}
	// Short header bit.
	bad2 := append([]byte{}, dg...)
	bad2[0] &= 0x7f
	if _, err := ParseInitial(bad2); err != ErrNotLongHeader {
		t.Errorf("short header: err = %v", err)
	}
	// Wrong version.
	bad3 := append([]byte{}, dg...)
	bad3[1], bad3[2], bad3[3], bad3[4] = 0xff, 0, 0, 29
	if _, err := ParseInitial(bad3); err == nil {
		t.Error("wrong version accepted")
	}
	// Truncations must error, never panic.
	for n := 0; n < len(dg); n += 97 {
		if _, err := ParseInitial(dg[:n]); err == nil {
			t.Errorf("truncated to %d bytes: no error", n)
		}
	}
}

func TestHandshakePacketRejected(t *testing.T) {
	in := &Initial{Version: Version1, DCID: []byte{1}, Crypto: whole([]byte{0})}
	dg, _ := in.Seal(nil, 0)
	dg[0] = 0xe0 // long header, type=2 (Handshake)
	if _, err := ParseInitial(dg); err != ErrNotInitial {
		t.Errorf("err = %v, want ErrNotInitial", err)
	}
}

func TestTransportParametersRoundTrip(t *testing.T) {
	tp := &TransportParameters{}
	tp.AppendUint(ParamMaxIdleTimeout, 30000)
	tp.AppendUint(ParamMaxUDPPayloadSize, 1472)
	tp.AppendUint(ParamInitialMaxData, 15<<20)
	tp.AppendBytes(ParamDisableActiveMigration, nil)
	tp.AppendBytes(ParamInitialSourceConnectionID, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	tp.AppendBytes(ParamGreaseQuicBit, nil)
	tp.AppendBytes(ParamUserAgent, []byte("Chrome/120.0 Windows NT 10.0"))
	tp.AppendUint(ParamMaxAckDelay, 25)

	got, err := ParseTransportParameters(tp.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := got.Uint(ParamMaxIdleTimeout); !ok || v != 30000 {
		t.Errorf("max_idle_timeout = %d, %v", v, ok)
	}
	if !got.Has(ParamDisableActiveMigration) {
		t.Error("missing disable_active_migration")
	}
	if got.Has(ParamAckDelayExponent) {
		t.Error("phantom ack_delay_exponent")
	}
	if n := got.ValueLen(ParamInitialSourceConnectionID); n != 8 {
		t.Errorf("iscid len = %d", n)
	}
	if n := got.ValueLen(ParamVersionInformation); n != -1 {
		t.Errorf("absent param len = %d", n)
	}
	p, _ := got.Get(ParamUserAgent)
	if string(p.Value) != "Chrome/120.0 Windows NT 10.0" {
		t.Errorf("user_agent = %q", p.Value)
	}
	ids := got.IDs()
	if len(ids) != 8 || ids[0] != ParamMaxIdleTimeout || ids[5] != ParamGreaseQuicBit {
		t.Errorf("IDs = %v", ids)
	}
}

func TestTransportParametersMalformed(t *testing.T) {
	// Length field running past the end.
	if _, err := ParseTransportParameters([]byte{0x01, 0x08, 0x00}); err == nil {
		t.Error("expected error for truncated value")
	}
	// Empty is fine.
	tp, err := ParseTransportParameters(nil)
	if err != nil || len(tp.Params) != 0 {
		t.Errorf("empty parse: %v %v", tp, err)
	}
}

func TestInitialWithTokenAndCoalescedPadding(t *testing.T) {
	in := &Initial{
		Version: Version1,
		DCID:    []byte{0xaa, 0xbb, 0xcc, 0xdd, 0xee},
		Token:   []byte("retry-token-value"),
		Crypto:  whole(bytes.Repeat([]byte{0x42}, 64)),
	}
	dg, err := in.Seal(nil, 1400)
	if err != nil {
		t.Fatal(err)
	}
	if len(dg) < 1400 {
		t.Errorf("size = %d, want >= 1400", len(dg))
	}
	out, err := ParseInitial(dg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Token, in.Token) {
		t.Errorf("token = %q", out.Token)
	}
}

func BenchmarkSealInitial(b *testing.B) {
	in := &Initial{Version: Version1, DCID: []byte{1, 2, 3, 4, 5, 6, 7, 8},
		Crypto: whole(make([]byte, 512))}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := in.Seal(nil, 0); err != nil {
			b.Fatal(err)
		}
	}
}
