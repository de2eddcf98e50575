package quicproto

import "videoplat/internal/wire"

// Transport parameter IDs (RFC 9000 §18.2 plus extensions seen in the wild).
const (
	ParamMaxIdleTimeout                 uint64 = 0x01
	ParamMaxUDPPayloadSize              uint64 = 0x03
	ParamInitialMaxData                 uint64 = 0x04
	ParamInitialMaxStreamDataBidiLocal  uint64 = 0x05
	ParamInitialMaxStreamDataBidiRemote uint64 = 0x06
	ParamInitialMaxStreamDataUni        uint64 = 0x07
	ParamInitialMaxStreamsBidi          uint64 = 0x08
	ParamInitialMaxStreamsUni           uint64 = 0x09
	ParamAckDelayExponent               uint64 = 0x0a
	ParamMaxAckDelay                    uint64 = 0x0b
	ParamDisableActiveMigration         uint64 = 0x0c
	ParamActiveConnectionIDLimit        uint64 = 0x0e
	ParamInitialSourceConnectionID      uint64 = 0x0f
	ParamVersionInformation             uint64 = 0x11   // RFC 9368
	ParamMaxDatagramFrameSize           uint64 = 0x20   // RFC 9221
	ParamGreaseQuicBit                  uint64 = 0x2ab2 // RFC 9287
	ParamInitialRTT                     uint64 = 0x3127 // Google
	ParamGoogleConnectionOptions        uint64 = 0x3128 // Google
	ParamUserAgent                      uint64 = 0x3129 // Google
	ParamGoogleVersion                  uint64 = 0x4752 // Google
)

var errParam = malformed("transport parameter runs past the extension")

// TransportParameter is one raw parameter in wire order.
type TransportParameter struct {
	ID    uint64
	Value []byte
}

// TransportParameters is the ordered parameter list from a ClientHello's
// quic_transport_parameters extension (code 57). Order is preserved because
// it differs between client implementations and is itself a signal.
type TransportParameters struct {
	Params []TransportParameter
}

// ParseTransportParameters decodes an extension-57 body into a new
// TransportParameters: see ParseInto.
func ParseTransportParameters(b []byte) (*TransportParameters, error) {
	var tp TransportParameters
	if err := tp.ParseInto(b); err != nil {
		return nil, err
	}
	out := tp // only an accepted list reaches the heap
	return &out, nil
}

// ParseInto decodes an extension-57 body into tp, overwriting Params.
// Values alias b. The body is walked twice, first to validate and count, so
// Params is written into tp's own list when it has the capacity and
// allocated once at its exact size when it does not. On error tp is left
// as it was and may be parsed into again.
func (tp *TransportParameters) ParseInto(b []byte) error {
	n := 0
	for r := wire.NewReader(b); !r.Empty(); n++ {
		if _, err := r.Varint(); err != nil {
			return errParam
		}
		size, err := r.Varint()
		if err != nil || r.Skip(int(size)) != nil {
			return errParam
		}
	}
	old := tp.Params
	if cap(old) < n {
		tp.Params = make([]TransportParameter, n)
	} else {
		tp.Params = old[:n]
	}
	r := wire.NewReader(b)
	for i := range tp.Params { // the reads cannot fail: checked above
		p := &tp.Params[i]
		p.ID, _ = r.Varint()
		size, _ := r.Varint()
		p.Value, _ = r.Bytes(int(size))
	}
	if len(old) > n {
		clear(old[n:]) // what an earlier, longer list left: it must not hold that list's bytes
	}
	return nil
}

// Marshal encodes the parameters in order.
func (tp *TransportParameters) Marshal() []byte {
	b := make([]byte, 0, 128)
	for _, p := range tp.Params {
		b = wire.AppendVarint(b, p.ID)
		b = wire.AppendVarint(b, uint64(len(p.Value)))
		b = append(b, p.Value...)
	}
	return b
}

// Get returns the first parameter with the given ID.
func (tp *TransportParameters) Get(id uint64) (TransportParameter, bool) {
	for _, p := range tp.Params {
		if p.ID == id {
			return p, true
		}
	}
	return TransportParameter{}, false
}

// Has reports presence of a parameter.
func (tp *TransportParameters) Has(id uint64) bool {
	_, ok := tp.Get(id)
	return ok
}

// Uint returns the varint-encoded value of a parameter, or (0, false).
func (tp *TransportParameters) Uint(id uint64) (uint64, bool) {
	p, ok := tp.Get(id)
	if !ok {
		return 0, false
	}
	v, err := wire.NewReader(p.Value).Varint()
	if err != nil {
		return 0, false
	}
	return v, true
}

// ValueLen returns the value length in bytes, or -1 if absent. Used for
// length-typed attributes such as initial_source_connection_id.
func (tp *TransportParameters) ValueLen(id uint64) int {
	p, ok := tp.Get(id)
	if !ok {
		return -1
	}
	return len(p.Value)
}

// IDs returns the parameter IDs in wire order, which forms the paper's q1
// "quic_parameters" list attribute.
func (tp *TransportParameters) IDs() []uint64 {
	ids := make([]uint64, len(tp.Params))
	for i, p := range tp.Params {
		ids[i] = p.ID
	}
	return ids
}

// AppendUint appends a parameter with a varint value.
func (tp *TransportParameters) AppendUint(id, value uint64) {
	tp.Params = append(tp.Params, TransportParameter{ID: id, Value: wire.AppendVarint(nil, value)})
}

// AppendBytes appends a parameter with a raw value (possibly empty for
// flag-style parameters such as disable_active_migration).
func (tp *TransportParameters) AppendBytes(id uint64, value []byte) {
	tp.Params = append(tp.Params, TransportParameter{ID: id, Value: value})
}
