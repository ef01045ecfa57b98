package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// TestOutputGolden pins every view m2mplan prints for the paper's default
// workload by SHA-256, so a change to how plans are stored or read cannot
// move a decision, a table entry or a byte of the dumps unnoticed.
func TestOutputGolden(t *testing.T) {
	for _, tc := range []struct {
		args string
		want string
	}{
		{"", "8a079dcfaed84d7577f70ce7385c4273bdc9117b495c083c5388e1434f1a3a42"},
		{"-edges", "0572d7f9ce050a9737d0e66e4823d969cb48b53a2c9e9d21ea9970f1bdbe9dce"},
		{"-dot", "4bdecb5672df6102862f7e468fa2fa5336a4c3d4b3189bfb9458fa192a331001"},
		{"-json", "7d24262b4f4f75169098175684cc54939ea8a0d24f8902b55abc11018196b7df"},
		{"-node 17", "3598e759f19ff9fafad7860b74d353a28ccfec07a603a0549571732305d98d27"},
		{"-edges -node 5 -seed 3", "6818ea3d56579d9948e625c29922618c77b867993255066be1e364916deac955"},
	} {
		var out bytes.Buffer
		if err := run(strings.Fields(tc.args), &out); err != nil {
			t.Fatalf("m2mplan %s: %v", tc.args, err)
		}
		sum := sha256.Sum256(out.Bytes())
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("m2mplan %s: output fingerprint %s, want %s", tc.args, got, tc.want)
		}
	}
}
