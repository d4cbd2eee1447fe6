package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/report"
)

// Entry is one persisted run outcome: the submission coordinates plus the
// full result view. One entry is one line of the store file.
type Entry struct {
	JobID    string            `json:"jobId"`
	Scenario string            `json:"scenario"`
	SUT      string            `json:"sut"`
	Seed     uint64            `json:"seed"`
	Result   report.ResultView `json:"result"`
}

// Store is an append-only JSON-lines result store. Appends are flushed
// and fsynced per entry; reload tolerates a torn final line (a crash
// mid-append), so restarting the service recovers every completed run.
type Store struct {
	mu sync.Mutex
	f  *os.File // nil for an in-memory store
	// size is the durable byte length: the offset just past the last
	// acknowledged entry. A failed append truncates back to it so disk
	// and the in-memory view never diverge.
	size    int64
	fsync   func(*os.File) error // swapped by tests to inject sync failures
	entries []Entry
}

// OpenStore opens (or creates) the store at path, reloading existing
// entries. An empty path yields a volatile in-memory store.
func OpenStore(path string) (*Store, error) {
	st := &Store{fsync: (*os.File).Sync}
	if path == "" {
		return st, nil
	}
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("service: store: %w", err)
	}
	// good is the byte offset of the end of the last intact entry; a
	// torn tail (crash mid-append) is truncated away below.
	var good int64
	for len(data) > 0 {
		line := data
		consumed := len(data)
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line = data[:i]
			consumed = i + 1
		}
		if len(bytes.TrimSpace(line)) == 0 {
			data = data[consumed:]
			good += int64(consumed)
			continue
		}
		var e Entry
		if err := json.Unmarshal(line, &e); err != nil {
			break
		}
		st.entries = append(st.entries, e)
		data = data[consumed:]
		good += int64(consumed)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("service: store: %w", err)
	}
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, fmt.Errorf("service: store truncate: %w", err)
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("service: store seek: %w", err)
	}
	st.f = f
	st.size = good
	return st, nil
}

// Append persists one entry (one JSON line, fsynced) and adds it to the
// in-memory view. On any write or sync failure the partial line is rolled
// back (truncated away) and the entry is NOT added to memory: a failed
// Append leaves no trace, so a restart cannot resurrect an entry that
// Entries() never reported.
func (st *Store) Append(e Entry) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.f != nil {
		b, err := json.Marshal(e)
		if err != nil {
			return fmt.Errorf("service: store append: %w", err)
		}
		b = append(b, '\n')
		if _, err := st.f.Write(b); err != nil {
			st.rollback()
			return fmt.Errorf("service: store append: %w", err)
		}
		if err := st.fsync(st.f); err != nil {
			// The line may have reached disk even though the sync failed;
			// without the rollback a restart would reload it while this
			// process never reported it.
			st.rollback()
			return fmt.Errorf("service: store sync: %w", err)
		}
		st.size += int64(len(b))
	}
	st.entries = append(st.entries, e)
	return nil
}

// rollback truncates the file back to the last acknowledged entry after a
// failed append. Best-effort: if the truncate itself fails too, the
// reload's torn-tail repair is the remaining safety net.
func (st *Store) rollback() {
	st.f.Truncate(st.size)
	st.f.Seek(st.size, io.SeekStart)
}

// Entries returns a snapshot of all entries in append order.
func (st *Store) Entries() []Entry {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]Entry, len(st.entries))
	copy(out, st.entries)
	return out
}

// Len returns the number of stored entries.
func (st *Store) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.entries)
}

// Close releases the backing file. The in-memory view stays readable.
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.f == nil {
		return nil
	}
	err := st.f.Close()
	st.f = nil
	return err
}
