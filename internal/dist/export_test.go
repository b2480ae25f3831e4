package dist

import "time"

// replicas asks every live worker for its replica of the state at the last
// boundary and returns the replies by worker id. A worker that leaves
// before it replies is left out.
func (c *Coordinator) replicas(timeout time.Duration) (map[int32]*wireCollectReply, error) {
	deadline := time.Now().Add(timeout)
	c.mu.Lock()
	defer c.mu.Unlock()
	ask := encodeCollect(wireCollect{Epoch: c.epoch, Seq: c.boundarySeq})
	live := c.liveLocked()
	for _, w := range live {
		w.collect = nil
		if err := w.link.Send(ask); err != nil {
			c.markDeadLocked(w, err)
		}
	}
	out := make(map[int32]*wireCollectReply, len(live))
	for _, w := range live {
		for w.live && w.collect == nil {
			if err := c.waitLocked(deadline); err != nil {
				return nil, err
			}
		}
		if w.collect != nil {
			out[w.id] = w.collect
		}
	}
	return out, nil
}

// parents returns the parents collected at the last boundary.
func (c *Coordinator) parents() []int32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int32(nil), c.parent...)
}
