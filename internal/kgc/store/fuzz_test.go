package store

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

// overflowHeader is a 128-byte Float64 store file whose shape passes the
// per-dimension bounds but whose value section, rows·dim·8 bytes, wraps
// int64 to a size the file appears to hold. The same bytes seed FuzzRead
// from testdata/fuzz/FuzzRead.
func overflowHeader() []byte {
	raw := make([]byte, 128)
	copy(raw, fileMagic)
	binary.LittleEndian.PutUint32(raw[8:12], fileVersion)
	binary.LittleEndian.PutUint32(raw[12:16], uint32(Float64))
	binary.LittleEndian.PutUint64(raw[16:24], 1073807362)
	binary.LittleEndian.PutUint64(raw[24:32], 2147352580)
	return raw
}

// A header whose section sizes overflow must be rejected with an error, not
// alias a slice longer than the file (which panicked in unsafe.Slice).
func TestRejectSectionSizeOverflow(t *testing.T) {
	_, err := Read(bytes.NewReader(overflowHeader()))
	if err == nil || !strings.Contains(err.Error(), "overflows") {
		t.Fatalf("want a section-size overflow error, got %v", err)
	}
}

// FuzzRead feeds arbitrary bytes to the store decoder. Read must either
// fail with an error or return a store whose every row is readable and
// which re-serializes to a file that reads back with the same shape.
func FuzzRead(f *testing.F) {
	for _, p := range []Precision{Float64, Float32, Int8} {
		s, err := FromRows(randRows(3, 20, 1), 3, 20, p)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		s, err := Read(bytes.NewReader(raw))
		if err != nil {
			return
		}
		row := make([]float64, s.Dim())
		for r := 0; r < s.Rows(); r++ {
			s.Row(int32(r), row)
		}
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			t.Fatalf("re-serializing a loaded store: %v", err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-reading a re-serialized store: %v", err)
		}
		if back.Rows() != s.Rows() || back.Dim() != s.Dim() || back.Precision() != s.Precision() {
			t.Fatalf("round trip changed shape: %d×%d %v -> %d×%d %v",
				s.Rows(), s.Dim(), s.Precision(), back.Rows(), back.Dim(), back.Precision())
		}
	})
}
