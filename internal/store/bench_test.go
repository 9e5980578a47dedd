package store

import (
	"bytes"
	"testing"

	"molq/internal/core"
)

func benchSnapshot(b *testing.B) (*core.MOVD, []byte) {
	b.Helper()
	a := buildMOVD(b, 1, 2000, 0, core.RRB)
	c := buildMOVD(b, 2, 2000, 1, core.RRB)
	m, _, err := core.Overlap(nil, 1, nil, a, c)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteMOVD(&buf, m); err != nil {
		b.Fatal(err)
	}
	return m, buf.Bytes()
}

func BenchmarkWriteMOVD(b *testing.B) {
	m, raw := benchSnapshot(b)
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		buf.Grow(len(raw))
		if err := WriteMOVD(&buf, m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadMOVD(b *testing.B) {
	_, raw := benchSnapshot(b)
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadMOVD(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}
