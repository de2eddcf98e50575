package server

import (
	"fmt"
	"os"

	"videoplat/internal/pcap"
)

// Source streams timestamped frames into the daemon: a pcap/pcapng replay
// or synthetic traffic (a tracegen.Stream). Next returns io.EOF when the source is exhausted.
// Sources need not be safe for concurrent use; the replay loop is the only
// reader. Each returned Packet's Data must stay valid across subsequent
// Next calls — the batched replay loop accumulates up to a batch of
// packets before the pipeline copies them — so sources must not reuse a
// read buffer between calls. A Source that also implements io.Closer is
// closed by the Server at shutdown, whether or not the replay reached EOF.
type Source interface {
	Next() (pcap.Packet, error)
}

// fileSource replays a capture file. The Server closes it at shutdown (see
// the io.Closer note on Source), covering replays cancelled before EOF.
type fileSource struct {
	f *os.File
	r interface{ Next() (pcap.Packet, error) }
}

// OpenFileSource opens a pcap or pcapng file as a Source.
func OpenFileSource(path string) (Source, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	r, err := pcap.OpenReader(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("server: opening capture %s: %w", path, err)
	}
	return &fileSource{f: f, r: r}, nil
}

func (s *fileSource) Next() (pcap.Packet, error) { return s.r.Next() }

// Close releases the underlying capture file.
func (s *fileSource) Close() error { return s.f.Close() }
