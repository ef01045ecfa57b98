package m2m

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"reflect"
	"sort"
	"testing"

	"m2m/internal/chaos"
)

// sessionStreamGolden is the SHA-256 of every ResilientStep (plus the
// final recovery and excision logs) of GenerateScenario seeds 1–140 run
// through NewScenarioRun. Any change to what a session observes, decides
// or reports moves it.
const sessionStreamGolden = "38a78bf155aa68b5137000aca72287dfc622a9a644039ee6650758e30fe9527f"

// TestSessionStreamGolden pins the complete resilient-session output
// stream across every scenario family: refactors of the replan path, the
// executors or the fault view must leave it byte-identical.
func TestSessionStreamGolden(t *testing.T) {
	h := sha256.New()
	families := make(map[string]int)
	for seed := int64(1); seed <= 140; seed++ {
		fmt.Fprintf(h, "seed %d\n", seed)
		sc, err := GenerateScenario(seed)
		if err != nil {
			fmt.Fprintf(h, "generate error %s\n", err)
			continue
		}
		families[sc.Family]++
		run, err := NewScenarioRun(sc)
		if err != nil {
			fmt.Fprintf(h, "build error %s\n", err)
			continue
		}
		for r := 0; r < sc.Rounds; r++ {
			step, err := run.Step()
			if err != nil {
				fmt.Fprintf(h, "step error %s\n", err)
				break
			}
			canonical(h, reflect.ValueOf(step))
			io.WriteString(h, "\n")
		}
		canonical(h, reflect.ValueOf(run.Session.Recoveries()))
		canonical(h, reflect.ValueOf(run.Session.Excisions()))
		io.WriteString(h, "\n")
	}
	for _, f := range []string{chaos.FamilyMild, chaos.FamilyChurn, chaos.FamilyAsync, chaos.FamilyBattery,
		chaos.FamilyByzantine, chaos.FamilyCollide, chaos.FamilyExtreme} {
		if families[f] < 5 {
			t.Errorf("family %s drawn %d times, want ≥ 5", f, families[f])
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != sessionStreamGolden {
		t.Fatalf("session stream hash %s, want %s", got, sessionStreamGolden)
	}
}

// canonical writes v in a deterministic text form: struct fields by
// name, floats in exact hex, maps sorted by key, nil pointers marked.
func canonical(w io.Writer, v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			io.WriteString(w, "nil")
			return
		}
		canonical(w, v.Elem())
	case reflect.Struct:
		io.WriteString(w, "{")
		for i := 0; i < v.NumField(); i++ {
			fmt.Fprintf(w, "%s:", v.Type().Field(i).Name)
			canonical(w, v.Field(i))
			io.WriteString(w, " ")
		}
		io.WriteString(w, "}")
	case reflect.Slice:
		fmt.Fprintf(w, "[%d:", v.Len())
		for i := 0; i < v.Len(); i++ {
			canonical(w, v.Index(i))
			io.WriteString(w, " ")
		}
		io.WriteString(w, "]")
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return keys[i].Int() < keys[j].Int() })
		fmt.Fprintf(w, "map[%d:", v.Len())
		for _, k := range keys {
			canonical(w, k)
			io.WriteString(w, "=")
			canonical(w, v.MapIndex(k))
			io.WriteString(w, " ")
		}
		io.WriteString(w, "]")
	case reflect.Float32, reflect.Float64:
		fmt.Fprintf(w, "%x", v.Float())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		fmt.Fprintf(w, "%d", v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		fmt.Fprintf(w, "%d", v.Uint())
	case reflect.Bool:
		fmt.Fprintf(w, "%t", v.Bool())
	case reflect.String:
		fmt.Fprintf(w, "%q", v.String())
	default:
		panic(fmt.Sprintf("canonical: unsupported kind %s", v.Kind()))
	}
}
