package server

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// agreesWithJSON requires the fast path, whenever it accepts a body, to
// decode exactly what encoding/json decodes — and never to accept a body
// encoding/json rejects.
func agreesWithJSON(t *testing.T, body string) (fast bool) {
	t.Helper()
	got, ok := parseUintArray([]uint64{7, 7, 7}, []byte(body)) // stale contents must not leak
	var want []uint64
	err := json.Unmarshal([]byte(body), &want)
	if !ok {
		return false
	}
	if err != nil {
		t.Fatalf("%q: fast path accepted what encoding/json rejects (%v)", body, err)
	}
	if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
		t.Fatalf("%q: fast path %v, encoding/json %v", body, got, want)
	}
	return true
}

func TestParseUintArray(t *testing.T) {
	for _, body := range []string{
		"[]", " [ ] ", "[0]", "[5,5,9]", "\t[ 1 ,\n2,\r3 ]\n",
		"[18446744073709551615]", "[0,18446744073709551615,10]",
	} {
		if !agreesWithJSON(t, body) {
			t.Errorf("%q: well-formed uint array left to the slow path", body)
		}
	}
	// Everything outside the grammar is encoding/json's to judge.
	for _, body := range []string{
		"", "[", "]", "[1", "[1,", "[1,]", "[,1]", "[1 2]", "[1]x", "[1],", "[[1]]",
		"[01]", "[00]", "[-1]", "[+1]", "[1.0]", "[1e3]", "[1E3]", `["1"]`, "[null]", "[true]",
		"[18446744073709551616]", "[99999999999999999999999]", "[184467440737095516150]",
		"{}", `{"items":[1]}`, "null", "1", "[1\f]",
	} {
		if agreesWithJSON(t, body) {
			t.Errorf("%q: accepted by the fast path", body)
		}
	}
}

func TestParseUintArrayRandomBodies(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	alphabet := []string{"0", "1", "9", "12", "007", ",", ",", " ", "\n", "[", "]", "-", ".", "e", "18446744073709551615", "18446744073709551616", "x"}
	for trial := 0; trial < 20000; trial++ {
		var sb strings.Builder
		if rng.Intn(4) > 0 {
			sb.WriteString("[")
		}
		n := rng.Intn(8)
		for k := 0; k < n; k++ {
			if rng.Intn(5) == 0 {
				sb.WriteString(alphabet[rng.Intn(len(alphabet))])
				continue
			}
			if k > 0 {
				sb.WriteString(",")
			}
			sb.WriteString(strconv.FormatUint(rng.Uint64()>>uint(rng.Intn(64)), 10))
		}
		if rng.Intn(4) > 0 {
			sb.WriteString("]")
		}
		agreesWithJSON(t, sb.String())
	}
}
