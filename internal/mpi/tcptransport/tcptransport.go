// Package tcptransport implements mpi.Transport over TCP, letting one World
// span OS processes and hosts — the paper's coupled Cray XT5 + BlueGene/P
// setting, where the MCI's root-to-root exchanges cross a real network.
//
// # Topology and rendezvous
//
// A world of P ranks uses one persistent framed stream per peer pair
// (P·(P−1)/2 connections in total, full mesh). Every rank knows the full
// peer address table; rank i listens at peers[i], dials every lower rank and
// accepts every higher one. A fixed dial direction makes the rendezvous
// deadlock-free, and dialing retries with backoff until RendezvousTimeout so
// processes may start in any order — which is also what lets a restarted
// process rejoin survivors that are already listening. The listener closes
// as soon as the mesh is complete, freeing the port for the next incarnation
// of this rank after a crash.
//
// Handshakes are fixed-size binary (magic, dialer rank, expected acceptor
// rank, world size) so a stray connection — a stale process from a previous
// incarnation, a port scanner — is rejected before any gob state exists.
//
// # Frame format
//
// Each frame is a 4-byte big-endian payload length followed by that many
// bytes of gob stream. The gob encoder/decoder per connection is persistent
// (type definitions transmitted once); the length prefix bounds corrupt or
// hostile input via Options.MaxFrame and keeps the stream resynchronizable
// for debugging. One frame carries exactly one mpi.Envelope.
//
// # Shutdown
//
// A rank that finishes its world body cleanly sends a FIN frame (a sentinel
// envelope) on every stream before closing; peers reading EOF after FIN
// treat it as a graceful departure. EOF or a stream error *without* FIN
// means the peer process died — the transport reports it through the lost
// callback and the mpi runtime tears the world down so blocked ranks unwind
// instead of hanging, which is what a distributed supervisor
// (core.RunDistributed) needs to observe a real kill -9.
package tcptransport

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"nektarg/internal/mpi"
)

// finComm is the sentinel Envelope.Comm announcing a graceful close. Real
// communicator wire ids never start with a NUL byte.
const finComm = "\x00fin"

// handshakeMagic opens every peer connection in both directions.
var handshakeMagic = [6]byte{'N', 'K', 'T', 'G', 'T', '1'}

// Options tunes a Transport; the zero value picks sane defaults.
type Options struct {
	// RendezvousTimeout bounds Start's wait for the full peer mesh,
	// including dial retries while peers are still launching (default 20s).
	RendezvousTimeout time.Duration
	// DialBackoff is the pause between dial attempts (default 50ms).
	DialBackoff time.Duration
	// MaxFrame rejects frames larger than this many bytes (default 64 MiB).
	MaxFrame int
}

func (o *Options) fill() {
	if o.RendezvousTimeout <= 0 {
		o.RendezvousTimeout = 20 * time.Second
	}
	if o.DialBackoff <= 0 {
		o.DialBackoff = 50 * time.Millisecond
	}
	if o.MaxFrame <= 0 {
		o.MaxFrame = 64 << 20
	}
}

// Transport is one rank's endpoint of a TCP world. Create with New (or
// Loopback for tests), then hand to mpi.RunOn, which starts and closes it.
type Transport struct {
	rank  int
	peers []string
	opt   Options

	ln      net.Listener
	conns   []*peerConn // world rank -> stream; nil at self
	deliver func(mpi.Envelope)
	lost    func(peer int, err error)
	readers sync.WaitGroup
	closed  atomic.Bool

	// Wire-level accounting, surfaced by Stats. All atomic: the fleet
	// publisher scrapes a live transport, possibly mid-rendezvous.
	pstats       []peerCounters // indexed by world rank (self stays zero)
	dialAttempts atomic.Int64
	redials      atomic.Int64
	rendezvousNs atomic.Int64
	finCloses    atomic.Int64
	eofCloses    atomic.Int64
}

// peerCounters is one peer's wire accounting (fixed-size, preallocated, so
// scrapes never race connection setup).
type peerCounters struct {
	framesSent  atomic.Int64
	bytesSent   atomic.Int64
	framesRecv  atomic.Int64
	bytesRecv   atomic.Int64
	handshakeNs atomic.Int64
}

// PeerStats is one peer's wire counters at a scrape instant.
type PeerStats struct {
	Peer        int   `json:"peer"`
	FramesSent  int64 `json:"frames_sent"`
	BytesSent   int64 `json:"bytes_sent"`
	FramesRecv  int64 `json:"frames_received"`
	BytesRecv   int64 `json:"bytes_received"`
	HandshakeNs int64 `json:"handshake_ns"` // rendezvous handshake latency to this peer
}

// Stats is a Transport's wire-level accounting snapshot: per-peer frame and
// byte tallies (FIN frames included — they are wire traffic), dial attempts
// and redials from the rendezvous, the total rendezvous wall time, and how
// streams ended (graceful FIN vs EOF-without-FIN, i.e. a dead peer).
type Stats struct {
	Rank         int         `json:"rank"`
	DialAttempts int64       `json:"dial_attempts"`
	Redials      int64       `json:"redials"`
	RendezvousNs int64       `json:"rendezvous_ns"`
	FinCloses    int64       `json:"fin_closes"`
	EOFCloses    int64       `json:"eof_closes"`
	Peers        []PeerStats `json:"peers"`
}

// Add accumulates another snapshot into this one, matching peers by rank —
// how a fleet publisher folds the counters of dead incarnations into the
// live transport's numbers.
func (s *Stats) Add(o Stats) {
	s.DialAttempts += o.DialAttempts
	s.Redials += o.Redials
	if o.RendezvousNs > s.RendezvousNs {
		s.RendezvousNs = o.RendezvousNs
	}
	s.FinCloses += o.FinCloses
	s.EOFCloses += o.EOFCloses
	for _, op := range o.Peers {
		found := false
		for i := range s.Peers {
			if s.Peers[i].Peer == op.Peer {
				s.Peers[i].FramesSent += op.FramesSent
				s.Peers[i].BytesSent += op.BytesSent
				s.Peers[i].FramesRecv += op.FramesRecv
				s.Peers[i].BytesRecv += op.BytesRecv
				if op.HandshakeNs > s.Peers[i].HandshakeNs {
					s.Peers[i].HandshakeNs = op.HandshakeNs
				}
				found = true
				break
			}
		}
		if !found {
			s.Peers = append(s.Peers, op)
		}
	}
}

// Stats snapshots the transport's wire counters. Safe to call from any
// goroutine at any time, including while the rendezvous is in flight.
func (t *Transport) Stats() Stats {
	s := Stats{
		Rank:         t.rank,
		DialAttempts: t.dialAttempts.Load(),
		Redials:      t.redials.Load(),
		RendezvousNs: t.rendezvousNs.Load(),
		FinCloses:    t.finCloses.Load(),
		EOFCloses:    t.eofCloses.Load(),
	}
	for j := range t.pstats {
		if j == t.rank {
			continue
		}
		pc := &t.pstats[j]
		s.Peers = append(s.Peers, PeerStats{
			Peer:        j,
			FramesSent:  pc.framesSent.Load(),
			BytesSent:   pc.bytesSent.Load(),
			FramesRecv:  pc.framesRecv.Load(),
			BytesRecv:   pc.bytesRecv.Load(),
			HandshakeNs: pc.handshakeNs.Load(),
		})
	}
	return s
}

// peerConn is one framed gob stream to a peer rank.
type peerConn struct {
	rank int
	c    net.Conn

	wmu sync.Mutex
	bw  *frameWriter
	enc *gob.Encoder
	buf bytes.Buffer // gob scratch: one encoded envelope per frame

	fr  *frameReader
	dec *gob.Decoder
	fin atomic.Bool // peer announced a graceful close

	stats *peerCounters // transport-owned wire accounting for this peer
}

// New creates the transport for world rank `rank` of the address table
// `peers` (one "host:port" per rank) and binds its listener at peers[rank].
// The mesh is established later, by Start.
func New(rank int, peers []string, opt Options) (*Transport, error) {
	if rank < 0 || rank >= len(peers) {
		return nil, fmt.Errorf("tcptransport: rank %d out of range for %d peers", rank, len(peers))
	}
	var ln net.Listener
	if len(peers) > 1 {
		var err error
		ln, err = net.Listen("tcp", peers[rank])
		if err != nil {
			return nil, fmt.Errorf("tcptransport: rank %d listen %s: %w", rank, peers[rank], err)
		}
	}
	return newWithListener(rank, peers, ln, opt), nil
}

func newWithListener(rank int, peers []string, ln net.Listener, opt Options) *Transport {
	opt.fill()
	return &Transport{
		rank:   rank,
		peers:  append([]string(nil), peers...),
		opt:    opt,
		ln:     ln,
		conns:  make([]*peerConn, len(peers)),
		pstats: make([]peerCounters, len(peers)),
	}
}

// Loopback creates a connected n-rank world on 127.0.0.1 ephemeral ports,
// one Transport per rank, for exercising the wire protocol inside one test
// process (each rank then runs under mpi.RunOn on its own goroutine).
func Loopback(n int) ([]*Transport, error) {
	lns := make([]net.Listener, n)
	peers := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		peers[i] = ln.Addr().String()
	}
	out := make([]*Transport, n)
	for i := range out {
		out[i] = newWithListener(i, peers, lns[i], Options{})
	}
	return out, nil
}

// Self implements mpi.Transport.
func (t *Transport) Self() int { return t.rank }

// Size implements mpi.Transport.
func (t *Transport) Size() int { return len(t.peers) }

// Start performs the rendezvous — dialing every lower rank (with retries)
// while accepting every higher one — then closes the listener and begins
// delivering incoming envelopes. It blocks until the full mesh is up or the
// rendezvous times out.
func (t *Transport) Start(deliver func(mpi.Envelope), lost func(peer int, err error)) error {
	t.deliver = deliver
	t.lost = lost
	rendezvousStart := time.Now()
	deadline := rendezvousStart.Add(t.opt.RendezvousTimeout)

	var wg sync.WaitGroup
	errs := make([]error, len(t.peers))
	for j := 0; j < t.rank; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			errs[j] = t.dialPeer(j, deadline)
		}(j)
	}
	if t.rank < len(t.peers)-1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[t.rank] = t.acceptPeers(deadline)
		}()
	}
	wg.Wait()
	if t.ln != nil {
		t.ln.Close() // mesh complete (or failed): free the port either way
		t.ln = nil
	}
	if err := errors.Join(errs...); err != nil {
		t.Close(false)
		return err
	}
	t.rendezvousNs.Store(time.Since(rendezvousStart).Nanoseconds())
	for _, pc := range t.conns {
		if pc != nil {
			t.readers.Add(1)
			go t.readLoop(pc)
		}
	}
	return nil
}

// dialPeer connects to lower rank j, retrying until the deadline so peers
// may start in any order (or be mid-restart).
func (t *Transport) dialPeer(j int, deadline time.Time) error {
	var lastErr error
	for attempt := 0; ; attempt++ {
		if time.Now().After(deadline) {
			if lastErr == nil {
				lastErr = errors.New("timeout")
			}
			return fmt.Errorf("tcptransport: rank %d dial rank %d (%s): %w", t.rank, j, t.peers[j], lastErr)
		}
		t.dialAttempts.Add(1)
		if attempt > 0 {
			t.redials.Add(1)
		}
		c, err := net.DialTimeout("tcp", t.peers[j], time.Until(deadline))
		if err == nil {
			hs := time.Now()
			err = t.handshakeDial(c, j, deadline)
			if err == nil {
				t.pstats[j].handshakeNs.Store(time.Since(hs).Nanoseconds())
				t.conns[j] = newPeerConn(j, c, t.opt.MaxFrame, &t.pstats[j])
				return nil
			}
			c.Close()
		}
		lastErr = err
		time.Sleep(t.opt.DialBackoff)
	}
}

// handshakeDial identifies us to the acceptor and validates its reply.
func (t *Transport) handshakeDial(c net.Conn, j int, deadline time.Time) error {
	c.SetDeadline(deadline)
	defer c.SetDeadline(time.Time{})
	req := struct {
		Magic     [6]byte
		From, To  uint32
		WorldSize uint32
	}{Magic: handshakeMagic, From: uint32(t.rank), To: uint32(j), WorldSize: uint32(len(t.peers))}
	if err := binary.Write(c, binary.BigEndian, &req); err != nil {
		return err
	}
	var resp struct {
		Magic [6]byte
		Rank  uint32
	}
	if err := binary.Read(c, binary.BigEndian, &resp); err != nil {
		return err
	}
	if resp.Magic != handshakeMagic || int(resp.Rank) != j {
		return fmt.Errorf("bad handshake reply from %s", t.peers[j])
	}
	return nil
}

// acceptPeers accepts one connection from every higher rank, rejecting
// strays (wrong magic, wrong world size, duplicate or out-of-range ranks).
func (t *Transport) acceptPeers(deadline time.Time) error {
	want := len(t.peers) - 1 - t.rank
	if tl, ok := t.ln.(*net.TCPListener); ok {
		tl.SetDeadline(deadline)
	}
	for want > 0 {
		c, err := t.ln.Accept()
		if err != nil {
			return fmt.Errorf("tcptransport: rank %d accept (%d peer(s) missing): %w", t.rank, want, err)
		}
		hs := time.Now()
		j, err := t.handshakeAccept(c, deadline)
		if err != nil {
			c.Close() // stray or stale connection; keep waiting for real peers
			continue
		}
		t.pstats[j].handshakeNs.Store(time.Since(hs).Nanoseconds())
		t.conns[j] = newPeerConn(j, c, t.opt.MaxFrame, &t.pstats[j])
		want--
	}
	return nil
}

func (t *Transport) handshakeAccept(c net.Conn, deadline time.Time) (int, error) {
	c.SetDeadline(deadline)
	defer c.SetDeadline(time.Time{})
	var req struct {
		Magic     [6]byte
		From, To  uint32
		WorldSize uint32
	}
	if err := binary.Read(c, binary.BigEndian, &req); err != nil {
		return 0, err
	}
	j := int(req.From)
	switch {
	case req.Magic != handshakeMagic:
		return 0, errors.New("bad magic")
	case int(req.WorldSize) != len(t.peers):
		return 0, fmt.Errorf("world size mismatch: peer says %d, have %d", req.WorldSize, len(t.peers))
	case int(req.To) != t.rank:
		return 0, fmt.Errorf("peer dialed rank %d, this is rank %d", req.To, t.rank)
	case j <= t.rank || j >= len(t.peers):
		return 0, fmt.Errorf("unexpected dialer rank %d", j)
	case t.conns[j] != nil:
		return 0, fmt.Errorf("duplicate connection from rank %d", j)
	}
	resp := struct {
		Magic [6]byte
		Rank  uint32
	}{Magic: handshakeMagic, Rank: uint32(t.rank)}
	if err := binary.Write(c, binary.BigEndian, &resp); err != nil {
		return 0, err
	}
	return j, nil
}

// Send implements mpi.Transport: one envelope, one frame.
func (t *Transport) Send(worldDst int, env mpi.Envelope) error {
	if worldDst < 0 || worldDst >= len(t.conns) || worldDst == t.rank {
		return fmt.Errorf("tcptransport: send to invalid world rank %d", worldDst)
	}
	pc := t.conns[worldDst]
	if pc == nil {
		return fmt.Errorf("tcptransport: no connection to world rank %d", worldDst)
	}
	if err := pc.writeFrame(&env); err != nil {
		return fmt.Errorf("tcptransport: send to world rank %d: %w", worldDst, err)
	}
	return nil
}

// readLoop decodes frames from one peer until the stream ends. EOF (or any
// error) after a FIN or after our own Close is a normal shutdown; without
// one it is a dead peer, reported through lost exactly once.
func (t *Transport) readLoop(pc *peerConn) {
	defer t.readers.Done()
	for {
		var env mpi.Envelope
		if err := pc.dec.Decode(&env); err != nil {
			if t.closed.Load() || pc.fin.Load() {
				return
			}
			if err == io.EOF {
				err = errors.New("connection closed without FIN")
			}
			t.eofCloses.Add(1)
			t.lost(pc.rank, err)
			return
		}
		pc.stats.framesRecv.Add(1)
		if env.Comm == finComm {
			pc.fin.Store(true)
			t.finCloses.Add(1)
			continue
		}
		t.deliver(env)
	}
}

// Close implements mpi.Transport. graceful sends a FIN frame on every stream
// first, so peers can tell a finished rank from a dead one.
func (t *Transport) Close(graceful bool) error {
	if !t.closed.CompareAndSwap(false, true) {
		return nil
	}
	if t.ln != nil {
		t.ln.Close()
		t.ln = nil
	}
	for _, pc := range t.conns {
		if pc == nil {
			continue
		}
		if graceful {
			pc.writeFrame(&mpi.Envelope{Comm: finComm}) // best effort
		}
		pc.c.Close()
	}
	t.readers.Wait()
	return nil
}

func newPeerConn(rank int, c net.Conn, maxFrame int, stats *peerCounters) *peerConn {
	pc := &peerConn{rank: rank, c: c, stats: stats}
	pc.bw = newFrameWriter(c)
	pc.enc = gob.NewEncoder(&pc.buf)
	pc.fr = &frameReader{r: c, max: uint32(maxFrame), recvBytes: &stats.bytesRecv}
	pc.dec = gob.NewDecoder(pc.fr)
	return pc
}

// writeFrame gob-encodes env into the scratch buffer and emits it as one
// length-prefixed frame. The encoder is persistent, so the scratch holds
// only this envelope's bytes (plus first-use type definitions).
func (pc *peerConn) writeFrame(env *mpi.Envelope) error {
	pc.wmu.Lock()
	defer pc.wmu.Unlock()
	pc.buf.Reset()
	if err := pc.enc.Encode(env); err != nil {
		return err
	}
	if err := pc.bw.frame(pc.buf.Bytes()); err != nil {
		return err
	}
	pc.stats.framesSent.Add(1)
	pc.stats.bytesSent.Add(int64(4 + pc.buf.Len()))
	return nil
}

// frameWriter emits length-prefixed frames with one syscall-sized flush per
// frame.
type frameWriter struct {
	c   net.Conn
	hdr [4]byte
	out bytes.Buffer
}

func newFrameWriter(c net.Conn) *frameWriter { return &frameWriter{c: c} }

func (w *frameWriter) frame(payload []byte) error {
	binary.BigEndian.PutUint32(w.hdr[:], uint32(len(payload)))
	w.out.Reset()
	w.out.Write(w.hdr[:])
	w.out.Write(payload)
	_, err := w.c.Write(w.out.Bytes())
	return err
}

// frameReader presents the concatenated frame payloads as one byte stream,
// transparently consuming the 4-byte length headers and enforcing the frame
// size bound. The persistent gob decoder reads from it; gob's own message
// framing and the wire frames advance in lockstep (one envelope per frame).
type frameReader struct {
	r         io.Reader
	remain    uint32 // bytes left in the current frame
	max       uint32
	hdr       [4]byte
	recvBytes *atomic.Int64 // wire bytes consumed (headers + payload)
}

func (fr *frameReader) Read(p []byte) (int, error) {
	for fr.remain == 0 {
		if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
			return 0, err
		}
		fr.recvBytes.Add(4)
		n := binary.BigEndian.Uint32(fr.hdr[:])
		if n > fr.max {
			return 0, fmt.Errorf("tcptransport: frame of %d bytes exceeds limit %d", n, fr.max)
		}
		fr.remain = n
	}
	if uint32(len(p)) > fr.remain {
		p = p[:fr.remain]
	}
	n, err := fr.r.Read(p)
	fr.remain -= uint32(n)
	fr.recvBytes.Add(int64(n))
	return n, err
}
