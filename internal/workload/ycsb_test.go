package workload

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

const sampleYCSBLog = `YCSB Client 0.17.0
Loading workload...
Starting test.
READ usertable user6284781860667377211 [ <all fields>]
INSERT usertable user8517097267634966620 [ field0=value0 field1=value1 ]
UPDATE usertable user42 [ field2=value2 ]
READMODIFYWRITE usertable user43 [ field0 ] [ field0=new ]
SCAN usertable user544337897754927744 67 [ <all fields>]
DELETE usertable user99
READ usertable frontier-key-aa17 [ <all fields>]
[OVERALL], RunTime(ms), 1795
`

// ycsbJunkLines are lines that are not YCSB operations.
var ycsbJunkLines = []string{
	"", "READ", "READ usertable", "SCAN usertable user5",
	"SCAN usertable user5 x", "SCAN usertable user5 0",
	"FROB usertable user5", "[OVERALL], Throughput(ops/sec), 5571",
}

func TestParseYCSBOp(t *testing.T) {
	ops, err := ImportYCSB(strings.NewReader(sampleYCSBLog))
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 7 {
		t.Fatalf("imported %d ops, want 7 (status lines must be skipped)", len(ops))
	}
	wantTypes := []OpType{Get, Put, Put, Put, Scan, Delete, Get}
	for i, w := range wantTypes {
		if ops[i].Type != w {
			t.Fatalf("op %d type %v, want %v", i, ops[i].Type, w)
		}
	}
	if ops[0].Key != 6284781860667377211 {
		t.Fatalf("numeric user key not preserved: %d", ops[0].Key)
	}
	if ops[2].Key != 42 || ops[2].Value == 0 {
		t.Fatalf("update mapped to %+v, want key 42 with a derived value", ops[2])
	}
	if ops[4].ScanLimit != 67 {
		t.Fatalf("scan limit %d, want 67", ops[4].ScanLimit)
	}
	if ops[6].Key == 0 {
		t.Fatal("non-numeric key did not hash")
	}
	// Hashing is deterministic.
	a, _ := ParseYCSBOp("READ usertable frontier-key-aa17")
	b, _ := ParseYCSBOp("READ usertable frontier-key-aa17")
	if a.Key != b.Key || a.Key != ops[6].Key {
		t.Fatal("hashed key not deterministic")
	}

	for _, junk := range ycsbJunkLines {
		if _, ok := ParseYCSBOp(junk); ok {
			t.Fatalf("junk line %q parsed as an op", junk)
		}
	}

	if _, err := ImportYCSB(strings.NewReader("no ops here\n")); err == nil {
		t.Fatal("op-free input accepted")
	}
}

// TestYCSBImportRoundTrip pins the lstrace-import path: a parsed YCSB log
// written through the trace writer reads back as the identical op stream
// with closed-loop (zero) gaps.
func TestYCSBImportRoundTrip(t *testing.T) {
	ops, err := ImportYCSB(strings.NewReader(sampleYCSBLog))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf, "ycsb-import", 0)
	tw.BeginPhase(0, "import", len(ops))
	tw.Append(ops, make([]int64, len(ops)))
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	tr, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != "ycsb-import" || len(tr.Phases) != 1 {
		t.Fatalf("trace header mangled: %q, %d phases", tr.Name, len(tr.Phases))
	}
	ph := tr.Phases[0]
	if !reflect.DeepEqual(ph.Ops, ops) {
		t.Fatalf("ops did not round-trip:\n%+v\n%+v", ph.Ops, ops)
	}
	for i, g := range ph.Gaps {
		if g != 0 {
			t.Fatalf("gap %d is %d, want closed-loop zeros", i, g)
		}
	}
}

// TestParseYCSBScanLimitFitsWire: a SCAN count the netdriver frame cannot
// carry in 32 bits is skipped like a non-positive one.
func TestParseYCSBScanLimitFitsWire(t *testing.T) {
	if _, ok := ParseYCSBOp("SCAN usertable user5 4294967296"); ok {
		t.Fatal("a 2^32 scan count parsed as an op")
	}
	op, ok := ParseYCSBOp("SCAN usertable user5 4294967295")
	if !ok || op.ScanLimit != MaxScanLimit {
		t.Fatalf("largest scan count parsed as %+v, %v", op, ok)
	}
}

// FuzzYCSBImport throws arbitrary logs at the importer: it must never panic,
// every op it returns must be in the op alphabet with a scan limit in
// [1, MaxScanLimit] exactly when it is a Scan, and the ops must survive a
// trace write and read unchanged.
func FuzzYCSBImport(f *testing.F) {
	for _, line := range strings.Split(sampleYCSBLog, "\n") {
		f.Add(line)
	}
	for _, line := range ycsbJunkLines {
		f.Add(line)
	}
	f.Add("READ usertable frontier-key-aa17")
	f.Fuzz(func(t *testing.T, log string) {
		ops, err := ImportYCSB(strings.NewReader(log))
		if err != nil {
			return
		}
		for i, op := range ops {
			if op.Type < 0 || op.Type >= numOpTypes {
				t.Fatalf("op %d: type %v outside the op alphabet", i, op.Type)
			}
			if lim := op.ScanLimit; op.Type == Scan && (lim < 1 || lim > MaxScanLimit) || op.Type != Scan && lim != 0 {
				t.Fatalf("op %d: %v with scan limit %d", i, op.Type, lim)
			}
		}
		var buf bytes.Buffer
		tw := NewTraceWriter(&buf, "ycsb-fuzz", 0)
		tw.BeginPhase(0, "import", len(ops))
		tw.Append(ops, make([]int64, len(ops)))
		if err := tw.Close(); err != nil {
			t.Fatal(err)
		}
		tr, err := ReadTrace(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.Phases) != 1 || !reflect.DeepEqual(tr.Phases[0].Ops, ops) {
			t.Fatal("ops did not survive a trace round trip")
		}
	})
}
