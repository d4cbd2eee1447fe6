package workload

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// YCSB operation-log import. The YCSB basic binding prints one line per
// operation:
//
//	READ usertable user6284781860667377211 [ <all fields>]
//	INSERT usertable user8517097267634966620 [ field0=... ]
//	UPDATE usertable user42 [ field2=... ]
//	SCAN usertable user544 67 [ <all fields>]
//	DELETE usertable user99
//
// ImportYCSB maps those onto the benchmark's op alphabet — READ→Get,
// INSERT/UPDATE/READMODIFYWRITE→Put, DELETE→Delete, SCAN→Scan with the
// record count as the scan limit — so real YCSB runs can enter the
// record→fit→synthesize flywheel as .lstrace files. Keys keep their
// numeric identity when the YCSB key is "user<digits>" (or bare digits);
// anything else hashes through FNV-64a, so the import is deterministic
// either way. The log carries no timestamps, so every gap is zero:
// replay arrives closed-loop (each op as the server frees).

// ycsbKey extracts the benchmark key from a YCSB key token.
func ycsbKey(tok string) uint64 {
	digits := strings.TrimPrefix(tok, "user")
	if n, err := strconv.ParseUint(digits, 10, 64); err == nil {
		return n
	}
	// FNV-64a over the raw token.
	h := uint64(14695981039346656037)
	for i := 0; i < len(tok); i++ {
		h ^= uint64(tok[i])
		h *= 1099511628211
	}
	return h
}

// ycsbValue derives a deterministic Put payload from the key (the
// benchmark stores scalar values; the YCSB field contents are opaque).
func ycsbValue(key uint64) uint64 {
	return key*0x9E3779B97F4A7C15 + 1
}

// ParseYCSBOp parses one YCSB log line. The second return is false for
// lines that are not operations (status output, comments, blanks).
func ParseYCSBOp(line string) (Op, bool) {
	fields := strings.Fields(line)
	if len(fields) < 3 {
		return Op{}, false
	}
	key := ycsbKey(fields[2])
	switch fields[0] {
	case "READ":
		return Op{Type: Get, Key: key}, true
	case "INSERT", "UPDATE", "READMODIFYWRITE":
		return Op{Type: Put, Key: key, Value: ycsbValue(key)}, true
	case "DELETE":
		return Op{Type: Delete, Key: key}, true
	case "SCAN":
		if len(fields) < 4 {
			return Op{}, false
		}
		n, err := strconv.Atoi(fields[3])
		if err != nil || n <= 0 || n > MaxScanLimit {
			return Op{}, false
		}
		return Op{Type: Scan, Key: key, ScanLimit: n}, true
	}
	return Op{}, false
}

// ImportYCSB reads a YCSB operation log and returns the mapped op stream.
// Non-operation lines are skipped; an input with no operations at all is
// an error (almost certainly not a YCSB log).
func ImportYCSB(r io.Reader) ([]Op, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var ops []Op
	for sc.Scan() {
		if op, ok := ParseYCSBOp(sc.Text()); ok {
			ops = append(ops, op)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: reading ycsb log: %w", err)
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("workload: no YCSB operations found")
	}
	return ops, nil
}
