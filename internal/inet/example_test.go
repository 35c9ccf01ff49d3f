package inet_test

import (
	"fmt"

	"realsum/internal/inet"
)

// The Internet checksum of a buffer, and the same value assembled from
// partial sums of fragments — the §4.1 composition the splice analysis
// rests on.
func Example() {
	data := []byte{0x45, 0x00, 0x00, 0x30, 0x12, 0x34, 0x40, 0x00}

	whole := inet.Sum(data)
	left := inet.NewPartial(data[:3]) // odd split: the right partial is byte-swapped in
	right := inet.NewPartial(data[3:])
	composed := left.Append(right)

	fmt.Printf("one-shot:  %#04x\n", whole)
	fmt.Printf("composed:  %#04x\n", composed.Sum)
	fmt.Printf("wire form: %#04x\n", inet.Checksum(data))
	// Output:
	// one-shot:  0x9764
	// composed:  0x9764
	// wire form: 0x689b
}
