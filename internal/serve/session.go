package serve

import (
	"net"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/wal"
)

// writeTimeout bounds every session write so a client that stops reading
// cannot pin a server goroutine forever.
const writeTimeout = 30 * time.Second

// session is one accepted connection. Its read loop decodes frames; ingest
// batches go through a bounded queue to a single worker goroutine (so each
// session's batches reach the WAL in submission order — per-session FIFO),
// and reads are answered inline from the published snapshot.
type session struct {
	srv      *Server
	conn     net.Conn
	role     byte
	clientID string // stable identity for exactly-once resume; "" = anonymous

	wmu sync.Mutex // serializes conn writes (worker, read loop, pump)

	q     chan ingestReq // bounded ingest queue feeding the worker
	qdone chan struct{}  // closed when the worker has drained q

	closeOnce sync.Once
}

// ingestReq is one decoded batch with its idempotency key (clientSeq 0 =
// untagged).
type ingestReq struct {
	clientSeq uint64
	b         graph.Batch
}

// write sends one frame under the write mutex with a bounded deadline.
func (c *session) write(kind byte, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	return writeFrame(c.conn, kind, payload)
}

// reject sends one typed refusal; the session stays open for retryable
// codes.
func (c *session) reject(code byte, reason string) {
	if m := c.srv.mRejected; m != nil {
		m.Inc()
	}
	c.write(skReject, encodeReject(code, reason))
}

// bye sends a graceful close and shuts the conn down.
func (c *session) bye(reason string) {
	c.closeOnce.Do(func() {
		c.write(skBye, encodeReject(0, reason))
		c.conn.Close()
	})
}

// serveConn runs one session to completion: hello/admission, then the
// frame loop.
func (s *Server) serveConn(conn net.Conn) {
	conn.SetReadDeadline(time.Now().Add(writeTimeout))
	kind, payload, err := wal.ReadFrame(conn)
	if err != nil || kind != skHello {
		conn.Close()
		return
	}
	role, clientID, err := decodeHello(payload)
	if err != nil {
		conn.Close()
		return
	}
	c := &session{
		srv:      s,
		conn:     conn,
		role:     role,
		clientID: clientID,
		q:        make(chan ingestReq, sessionQueue),
		qdone:    make(chan struct{}),
	}
	s.mu.Lock()
	switch {
	case s.draining:
		s.mu.Unlock()
		c.reject(RejectDraining, "server draining")
		conn.Close()
		return
	case len(s.sessions) >= s.cfg.maxSessions():
		s.mu.Unlock()
		c.reject(RejectOverloaded, "session limit reached")
		conn.Close()
		return
	case role != RoleIngest && role != RoleQuery:
		s.mu.Unlock()
		c.reject(RejectBadRequest, "unknown role")
		conn.Close()
		return
	}
	s.sessions[c] = struct{}{}
	n := len(s.sessions)
	s.mu.Unlock()
	if s.mSessions != nil {
		s.mSessions.Set(float64(n))
	}
	if role == RoleIngest {
		// Advertise the writer so group-commit sync leaders hold the
		// commit window open while several ingest sessions are connected.
		s.b.AddWriter(1)
	}
	defer func() {
		if role == RoleIngest {
			s.b.AddWriter(-1)
		}
		s.mu.Lock()
		delete(s.sessions, c)
		n := len(s.sessions)
		s.mu.Unlock()
		if s.mSessions != nil {
			s.mSessions.Set(float64(n))
		}
		c.bye("")
	}()

	st := s.snap.Load()
	c.write(skWelcome, encodeWelcome(welcome{
		AlgName: s.b.alg.Name(),
		NumV:    uint32(st.NumVertices()),
		Seq:     st.Seq,
	}))

	go c.ingestWorker()
	defer func() {
		close(c.q)
		<-c.qdone
	}()

	for {
		conn.SetReadDeadline(time.Time{}) // sessions may idle between requests
		kind, payload, err := wal.ReadFrame(conn)
		if err != nil {
			return // conn closed or corrupt frame: drop the session
		}
		switch kind {
		case skIngest:
			if role != RoleIngest {
				c.reject(RejectBadRequest, "ingest on a query session")
				return
			}
			cseq, b, derr := decodeIngest(payload)
			if derr != nil {
				c.reject(RejectBadRequest, derr.Error())
				return
			}
			if cerr := s.b.CheckBatch(b); cerr != nil {
				// Malformed content is rejected before it can reach the WAL,
				// but the session may continue with its next batch.
				c.reject(RejectBadRequest, cerr.Error())
				continue
			}
			select {
			case c.q <- ingestReq{clientSeq: cseq, b: b}:
			default:
				c.reject(RejectSessionBusy, "session queue full")
			}
		case skGet:
			c.handleGet(payload)
		case skTopK:
			c.handleTopK(payload)
		case skStat:
			c.handleStat()
		case skSubscribe:
			s.addSubscriber(c)
		case skBye:
			return
		default:
			c.reject(RejectBadRequest, "unknown frame kind")
			return
		}
	}
}

// ingestWorker drains the session queue in FIFO order: admission token,
// group-commit append (durable on return), then the ack carrying the
// assigned sequence and whether the batch was a deduplicated resend. An
// append failure no longer kills the session: the server flips to degraded
// (read-only) mode, the batch is rejected as RejectDegraded, and the client
// resubmits the same clientSeq once the prober brings the log back — the
// dedup window keeps an append that landed before the fault exactly-once.
func (c *session) ingestWorker() {
	defer close(c.qdone)
	for r := range c.q {
		if re := c.srv.admit(); re != nil {
			c.reject(re.Code, re.Reason)
			continue
		}
		seq, dup, err := c.srv.b.AppendTagged(c.clientID, r.clientSeq, r.b)
		if err != nil {
			// seq == 0: nothing was logged or enqueued (a torn write, a
			// poisoned log, or a dup whose durability re-check failed), so
			// the reserved slot must be released here. seq != 0: only the
			// fsync failed — the frame IS logged, onAppend enqueued it, and
			// the applier releases the slot after applying, exactly like a
			// healthy append whose ack was lost; the client's resend of the
			// same clientSeq dedups against it.
			if seq == 0 {
				<-c.srv.tokens
			}
			c.srv.enterDegraded(err)
			c.reject(RejectDegraded, "append failed: "+err.Error())
			continue
		}
		if dup {
			// A resend of an already-logged batch: acked with its original
			// sequence, never re-applied. Release the unused apply slot.
			<-c.srv.tokens
		}
		var e wal.Enc
		e.U64(seq)
		e.Bool(dup)
		c.write(skIngestAck, e.B)
	}
}

func (c *session) handleGet(payload []byte) {
	d := wal.Dec{B: payload}
	v := d.U32()
	if d.Err("get") != nil {
		c.reject(RejectBadRequest, "malformed get")
		return
	}
	snap := c.srv.snap.Load()
	val, parent, ok := snap.Value(graph.VertexID(v))
	if !ok {
		c.reject(RejectBadRequest, "vertex out of range")
		return
	}
	c.write(skValue, encodeValue(value{Seq: snap.Seq, V: v, Val: val, Parent: parent}))
}

func (c *session) handleTopK(payload []byte) {
	d := wal.Dec{B: payload}
	k := int(d.U32())
	if d.Err("topk") != nil || k <= 0 || k > 1<<20 {
		c.reject(RejectBadRequest, "malformed top-k")
		return
	}
	snap := c.srv.snap.Load()
	c.write(skTopKReply, encodeVVList(vvList{Seq: snap.Seq, Recs: snap.TopK(k, c.srv.b.alg.Better)}))
}

func (c *session) handleStat() {
	s := c.srv
	s.mu.Lock()
	n := len(s.sessions)
	s.mu.Unlock()
	c.write(skStatReply, encodeStat(Stat{
		AppliedSeq: s.snap.Load().Seq,
		LoggedSeq:  s.b.LastSeq(),
		Sessions:   uint32(n),
	}))
}

// subscriber is one delta stream: the applier fans each batch's changed
// vertices into ch, and the pump goroutine writes them to the session.
type subscriber struct {
	sess *session
	ch   chan vvList
}

func (s *Server) addSubscriber(c *session) {
	sub := &subscriber{sess: c, ch: make(chan vvList, subBuffer)}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		c.reject(RejectDraining, "server draining")
		return
	}
	s.subs[sub] = struct{}{}
	s.mu.Unlock()
	s.sessWG.Add(1)
	go func() {
		defer s.sessWG.Done()
		sub.pump()
	}()
}

// pump writes deltas until the channel closes (shutdown or overflow drop)
// or the write fails (dead client). On exit it makes sure the subscriber is
// unregistered and the session torn down, so a stalled reader costs the
// server nothing.
func (sub *subscriber) pump() {
	srv := sub.sess.srv
	for m := range sub.ch {
		if err := sub.sess.write(skDelta, encodeVVList(m)); err != nil {
			break
		}
	}
	srv.mu.Lock()
	delete(srv.subs, sub)
	srv.mu.Unlock()
	sub.sess.bye("subscription ended")
}
