package jobs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// Journal is the append-only JSONL job log that makes submissions survive
// a service restart: every submission, start and terminal transition is
// one line, fsynced before the call that caused it returns to the queue
// machinery. On startup the manager replays the journal — jobs with a
// finish record are restored as terminal history (warming the result
// cache), jobs without one are re-enqueued under their original IDs.
//
// The format is deliberately boring: one self-describing JSON object per
// line, so a journal survives version skew (unknown fields are ignored)
// and a crash mid-write (a truncated last line is discarded on replay).
type Journal struct {
	mu sync.Mutex
	f  *os.File

	history []journalRecord // parsed at open; consumed once by the manager
}

// journalRecord is one journal line.
type journalRecord struct {
	// Type is the transition: "submit", "start" or "finish".
	Type string    `json:"type"`
	ID   string    `json:"id"`
	Time time.Time `json:"time"`
	// Spec is the normalized job spec; submit records only.
	Spec *Spec `json:"spec,omitempty"`
	// State is the terminal state; finish records only.
	State State `json:"state,omitempty"`
	// Result is the outcome of a done (or cancelled best-so-far) job;
	// finish records only.
	Result *Result `json:"result,omitempty"`
	// Error is the failure message; finish records only.
	Error string `json:"error,omitempty"`
}

// OpenJournal opens (creating if needed) the journal at path, parsing any
// existing records for replay. A record that fails to parse ends the
// replay at that point — everything before it is kept, so a crash that
// truncated the final line loses at most that one transition.
func OpenJournal(path string) (*Journal, error) {
	j := &Journal{}
	if f, err := os.Open(path); err == nil {
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024) // uploaded netlists travel in submit records
		for sc.Scan() {
			line := sc.Bytes()
			if len(line) == 0 {
				continue
			}
			var rec journalRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				break // truncated tail from a crash mid-write
			}
			j.history = append(j.history, rec)
		}
		f.Close()
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("jobs: opening journal: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobs: opening journal for append: %w", err)
	}
	j.f = f
	return j, nil
}

// Replayed returns the records parsed at open, oldest first. The manager
// consumes them once at construction.
func (j *Journal) Replayed() []journalRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.history
}

// append writes one record and syncs it to stable storage. Write errors
// are returned for the caller to log — a full disk must not take the
// in-memory queue down with it.
func (j *Journal) append(rec journalRecord) error {
	blob, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("jobs: encoding journal record: %w", err)
	}
	blob = append(blob, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("jobs: journal is closed")
	}
	if _, err := j.f.Write(blob); err != nil {
		return fmt.Errorf("jobs: appending journal record: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("jobs: syncing journal: %w", err)
	}
	return nil
}

// Close flushes and closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
