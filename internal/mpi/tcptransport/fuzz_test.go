package tcptransport

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"
)

// FuzzFrame feeds arbitrary bytes, as a peer's stream, through the frame
// reader and envelope decoder a connection reads with. Every input ends in
// envelopes and then an error, never a panic, and no envelope reads more
// than one frame of at most MaxFrame bytes off the wire. The seed corpus in
// testdata/fuzz/FuzzFrame holds a valid two-envelope stream, a FIN, a
// frame over the limit, a truncated frame, trailing bytes after an
// envelope, and a gob message that claims more bytes than its frame holds.
func FuzzFrame(f *testing.F) {
	const maxFrame = 1 << 10
	f.Fuzz(func(t *testing.T, data []byte) {
		peer, local := net.Pipe()
		defer local.Close()
		go func() {
			peer.Write(data)
			peer.Close()
		}()
		var stats peerCounters
		pc := newPeerConn(1, local, maxFrame, &stats)
		for {
			before := stats.bytesRecv.Load()
			_, err := pc.readEnvelope()
			if n := stats.bytesRecv.Load() - before; n > 4+maxFrame {
				t.Fatalf("one envelope read %d wire bytes, more than one %d-byte frame", n, maxFrame)
			}
			if err != nil {
				return
			}
		}
	})
}

// byteConn is a net.Conn that reads a fixed input and records what is
// written; only the methods handshakeAccept calls are implemented.
type byteConn struct {
	net.Conn
	in  io.Reader
	out bytes.Buffer
}

func (c *byteConn) Read(p []byte) (int, error)  { return c.in.Read(p) }
func (c *byteConn) Write(p []byte) (int, error) { return c.out.Write(p) }
func (c *byteConn) SetDeadline(time.Time) error { return nil }

// FuzzHandshake feeds arbitrary bytes to the accepting side of the
// rendezvous handshake of rank 1 in a 3-rank world. It returns an error or
// the dialer's rank, which must be a higher rank of the world, and then it
// has replied with the magic and its own rank. The seed corpus in
// testdata/fuzz/FuzzHandshake holds a valid handshake from rank 2, a wrong
// magic, a wrong world size, a dialer at the acceptor's own rank, a dial to
// another rank and a short read.
func FuzzHandshake(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := &Transport{rank: 1, peers: make([]string, 3), conns: make([]*peerConn, 3)}
		c := &byteConn{in: bytes.NewReader(data)}
		rank, err := tr.handshakeAccept(c, time.Time{})
		if err != nil {
			return
		}
		if rank <= tr.rank || rank >= len(tr.peers) {
			t.Fatalf("accepted dialer rank %d; only ranks above %d of %d dial rank %d", rank, tr.rank, len(tr.peers), tr.rank)
		}
		if !bytes.HasPrefix(data, handshakeMagic[:]) {
			t.Fatalf("accepted a handshake without the magic: %q", data)
		}
		want := append(handshakeMagic[:], 0, 0, 0, byte(tr.rank))
		if !bytes.Equal(c.out.Bytes(), want) {
			t.Fatalf("reply %x, want %x", c.out.Bytes(), want)
		}
	})
}
