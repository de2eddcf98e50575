// Package fingerprint models the handshake behaviour of the user platforms
// studied in the paper: 17 unique combinations of device OS and software
// agent across four video content providers.
//
// Each platform has a Profile describing its TCP stack parameters, its TLS
// ClientHello shape (cipher suites, extension order, extension values) and —
// where the platform streams YouTube over QUIC — its QUIC transport
// parameters. Profiles substitute for the paper's gated lab captures: they
// are modeled on published client fingerprints (JA3 corpora, BoringSSL/NSS/
// Secure Transport/Schannel defaults) and include per-flow stochastic
// variation so that generated datasets exhibit realistic intra-class
// variance, including the iOS/macOS confusability the paper reports.
package fingerprint

import (
	"fmt"
)

// Provider is one of the four studied video content providers.
type Provider uint8

// Providers studied in the paper.
const (
	YouTube Provider = iota
	Netflix
	Disney
	Amazon

	// NumProviders is the number of Provider values, for fixed-size counter
	// arrays.
	NumProviders = int(Amazon) + 1
)

// AllProviders lists the studied providers in paper order.
func AllProviders() []Provider { return []Provider{YouTube, Netflix, Disney, Amazon} }

// String returns the paper's short provider name.
func (p Provider) String() string {
	switch p {
	case YouTube:
		return "youtube"
	case Netflix:
		return "netflix"
	case Disney:
		return "disney"
	case Amazon:
		return "amazon"
	}
	return fmt.Sprintf("provider(%d)", uint8(p))
}

// MarshalText encodes the provider by name, so JSON carries "youtube"
// rather than an integer.
func (p Provider) MarshalText() ([]byte, error) {
	if int(p) >= NumProviders {
		return nil, fmt.Errorf("fingerprint: invalid provider %d", uint8(p))
	}
	return []byte(p.String()), nil
}

// UnmarshalText parses a name written by MarshalText.
func (p *Provider) UnmarshalText(text []byte) error {
	for _, q := range AllProviders() {
		if q.String() == string(text) {
			*p = q
			return nil
		}
	}
	return fmt.Errorf("fingerprint: unknown provider %q", text)
}

// Abbrev returns the paper's two-letter code (YT/NF/DN/AP).
func (p Provider) Abbrev() string {
	switch p {
	case YouTube:
		return "YT"
	case Netflix:
		return "NF"
	case Disney:
		return "DN"
	case Amazon:
		return "AP"
	}
	return "??"
}

// DeviceType is the operating-system class of the user device.
type DeviceType uint8

// Device types distinguished by the paper's device-type objective.
const (
	Windows DeviceType = iota
	MacOS
	Android
	IOS
	TV // smart TVs and consoles (Android TV, PlayStation)
	numDevices
)

// String returns the label used in figures (windows/macOS/android/iOS/TV).
func (d DeviceType) String() string {
	switch d {
	case Windows:
		return "windows"
	case MacOS:
		return "macOS"
	case Android:
		return "android"
	case IOS:
		return "iOS"
	case TV:
		return "TV"
	}
	return fmt.Sprintf("device(%d)", uint8(d))
}

// Agent is the software agent playing the video.
type Agent uint8

// Software agents distinguished by the paper.
const (
	Chrome Agent = iota
	Edge
	Firefox
	Safari
	SamsungInternet
	NativeApp
	numAgents
)

// String returns the label used in figures.
func (a Agent) String() string {
	switch a {
	case Chrome:
		return "chrome"
	case Edge:
		return "edge"
	case Firefox:
		return "firefox"
	case Safari:
		return "safari"
	case SamsungInternet:
		return "samsungInternet"
	case NativeApp:
		return "nativeApp"
	}
	return fmt.Sprintf("agent(%d)", uint8(a))
}

// Platform is a user platform: the (device type, software agent) pair that
// the composite classifier predicts.
type Platform struct {
	Device DeviceType
	Agent  Agent
}

// Label returns the paper's composite class label, e.g. "windows_chrome".
// Android TV and PlayStation native apps keep distinct labels (the paper's
// Fig 12(b) lists androidTV_nativeApp and ps5_nativeApp separately) via the
// dedicated platform variables below.
func (pl Platform) Label() string { return pl.Device.String() + "_" + pl.Agent.String() }

// The 17 unique user platforms of Table 1. TV platforms are split into the
// two concrete products the paper measured.
var (
	WindowsChrome  = Platform{Windows, Chrome}
	WindowsEdge    = Platform{Windows, Edge}
	WindowsFirefox = Platform{Windows, Firefox}
	WindowsNative  = Platform{Windows, NativeApp}
	MacSafari      = Platform{MacOS, Safari}
	MacChrome      = Platform{MacOS, Chrome}
	MacEdge        = Platform{MacOS, Edge}
	MacFirefox     = Platform{MacOS, Firefox}
	MacNative      = Platform{MacOS, NativeApp}
	AndroidChrome  = Platform{Android, Chrome}
	AndroidSamsung = Platform{Android, SamsungInternet}
	AndroidNative  = Platform{Android, NativeApp}
	IOSSafari      = Platform{IOS, Safari}
	IOSChrome      = Platform{IOS, Chrome}
	IOSNative      = Platform{IOS, NativeApp}
	AndroidTV      = Platform{TV, NativeApp} // Android TV native app
	PlayStation    = Platform{TV, NativeApp} // disambiguated by profile key
)

// PlatformKey identifies a concrete platform profile. It extends Platform
// with a product discriminator for the two TV platforms that share
// (TV, NativeApp).
type PlatformKey struct {
	Platform
	Product string // "" except "androidTV" / "ps5"
}

// Label returns the figure label, e.g. "androidTV_nativeApp".
func (k PlatformKey) Label() string {
	if k.Product != "" {
		return k.Product + "_" + k.Agent.String()
	}
	return k.Platform.Label()
}

// Transport is the flow's transport protocol.
type Transport uint8

// Transports carrying video flows.
const (
	TCP Transport = iota
	QUIC
)

// String returns "tcp" or "quic".
func (t Transport) String() string {
	if t == QUIC {
		return "quic"
	}
	return "tcp"
}

// MarshalText encodes the transport by name ("tcp" or "quic").
func (t Transport) MarshalText() ([]byte, error) {
	if t > QUIC {
		return nil, fmt.Errorf("fingerprint: invalid transport %d", uint8(t))
	}
	return []byte(t.String()), nil
}

// UnmarshalText parses a name written by MarshalText.
func (t *Transport) UnmarshalText(text []byte) error {
	switch string(text) {
	case "tcp":
		*t = TCP
	case "quic":
		*t = QUIC
	default:
		return fmt.Errorf("fingerprint: unknown transport %q", text)
	}
	return nil
}
