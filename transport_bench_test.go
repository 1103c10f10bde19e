package mcs

import (
	"net/http/httptest"
	"testing"
)

// BenchmarkTransportPing isolates pure wire cost: ping does no catalog
// work, so each iteration is one envelope encode/decode plus one HTTP
// round trip. The soap/json gap here is the per-call encoding tax; the
// regression benchmark's mixed and mixed_soap workloads measure it under
// real load.
func BenchmarkTransportPing(b *testing.B) {
	srv, err := NewServer(ServerOptions{})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	b.Cleanup(ts.Close)

	for _, kind := range []TransportKind{TransportSOAP, TransportJSON} {
		b.Run(string(kind), func(b *testing.B) {
			c := NewClient(ts.URL, testAlice, WithTransport(kind))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Ping(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTransportCreateFile measures one mutating call per iteration
// over each wire — the add-path unit of the encoding tax.
func BenchmarkTransportCreateFile(b *testing.B) {
	srv, err := NewServer(ServerOptions{})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	b.Cleanup(ts.Close)

	for _, kind := range []TransportKind{TransportSOAP, TransportJSON} {
		b.Run(string(kind), func(b *testing.B) {
			c := NewClient(ts.URL, testAlice, WithTransport(kind))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				name := "bench-" + string(kind) + "-" + itoa(i) + ".dat"
				if _, err := c.CreateFile(FileSpec{Name: name}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// itoa avoids pulling strconv into the hot loop's measured allocations in
// an obvious way (fmt.Sprintf allocates more).
func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [20]byte
	p := len(buf)
	for i > 0 {
		p--
		buf[p] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[p:])
}
