package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/mesh"
	"repro/internal/sparse"
	"repro/internal/telemetry"
)

// wireRHS is a right-hand side of n full-length decimals, as the
// benchmark's rotated model-problem vectors are.
func wireRHS(n int) []float64 {
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = math.Sin(float64(i)+0.5) / 7
	}
	return rhs
}

// superluRequest is the body of a pooled superlu request: the
// benchmark's most common shape.
func superluRequest(t testing.TB, n int) []byte {
	body, err := json.Marshal(&SolveRequest{
		Tenant: "bench", Backend: "superlu", ReturnSolution: true,
		Operator: OperatorRef{ID: "slu-c0", Version: 1},
		RHS:      wireRHS(n),
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// wireShapes are the request shapes the benchmark sends: pooled
// superlu, pooled petsc with parameters, nrhs=4, and the operator
// version bumps by CSR and by Matrix Market body.
func wireShapes(t testing.TB) [][]byte {
	a, rhs, err := mesh.PaperProblem(4).GenerateGlobal()
	if err != nil {
		t.Fatal(err)
	}
	var mm strings.Builder
	if err := sparse.WriteMatrixMarket(&mm, a, sparse.MMGeneral); err != nil {
		t.Fatal(err)
	}
	base := SolveRequest{Tenant: "bench", Backend: "superlu", ReturnSolution: true, Telemetry: true,
		Operator: OperatorRef{ID: "slu-c0", Version: 1}, RHS: rhs}
	petsc := base
	petsc.Backend, petsc.Operator = "petsc", OperatorRef{ID: "ksp", Version: 1}
	petsc.Params = map[string]string{"solver": "gmres", "preconditioner": "jacobi", "tol": "1e-8", "maxits": "5000", "restart": "30"}
	multi := base
	multi.NRHS, multi.RHS = 4, append(append(append(append([]float64{}, rhs...), rhs...), rhs...), rhs...)
	csr := base
	csr.Operator = OperatorRef{ID: "slu-c0", Version: 2,
		Matrix: &MatrixPayload{N: a.Rows, RowPtr: a.RowPtr, ColInd: a.ColInd, Vals: a.Vals}}
	market := base
	market.Operator = OperatorRef{ID: "slu-c1", Version: 3, MatrixMarket: mm.String()}
	var out [][]byte
	for _, r := range []*SolveRequest{&base, &petsc, &multi, &csr, &market} {
		body, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, body)
	}
	return out
}

// wireSeeds are the inputs where a hand-written reader is most likely
// to part from encoding/json.
var wireSeeds = []string{
	// Case-folded and duplicate keys, merged params and payloads.
	`{"TENANT":"a","Backend":"b","opErAtor":{"ID":"x","GRID_n":3}}`,
	`{"t\u0065nant":"x","proc\u017f":2,"bac\u212aend":"k"}`,
	"{\"proc\xc5\xbf\":3}",
	`{"tenant":"a","tenant":"b","procs":1,"procs":2}`,
	`{"params":{"a":"1"},"params":{"b":"2","a":"3"},"params":{"c":null}}`,
	`{"rhs":[1,2,3],"rhs":[null,null]}`,
	`{"rhs":[1,2,3],"rhs":[5],"rhs":[null,null,null,null,null]}`,
	`{"rhs":[1,2,3],"rhs":[],"rhs":[null,null]}`,
	`{"failover":["a","b"],"failover":[null,null,null]}`,
	`{"operator":{"matrix":{"n":2,"vals":[1]}},"operator":{"matrix":{"rowptr":[0,1]},"id":"m"}}`,
	`{"operator":{"matrix":{"n":2}},"operator":{"matrix":null}}`,
	// null for every field, before and after a value.
	`{"tenant":null,"backend":null,"params":null,"procs":null,"workers":null,"operator":null,"rhs":null,"nrhs":null,"return_solution":null,"telemetry":null,"failover":null,"fault_spec":null}`,
	`{"tenant":"a","tenant":null,"rhs":[1],"rhs":null,"params":{"a":"b"},"params":null,"procs":2,"procs":null,"telemetry":true,"telemetry":null}`,
	`{"operator":{"id":"x","id":null,"version":2,"version":null,"grid_n":null,"matrix":null,"matrix_market":null}}`,
	`{"operator":{"matrix":{"n":null,"rowptr":null,"colind":null,"vals":null}}}`,
	`{"rhs":[null,1,null],"failover":[null,"x"],"operator":{"matrix":{"colind":[null,2]}}}`,
	`null`, ` null x`, `nullx`, `nul`, ``, `   `, `[]`, `1`, `"s"`, `true`, `{}`, ` {} `,
	// Escapes and invalid UTF-8.
	`{"tenant":"a\"b\\c\/d\u00e9\ud83d\ude00\n\t\b\f\r"}`,
	`{"tenant":"\ud800","backend":"\u2028<&>"}`,
	`{"operator":{"matrix_market":"%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 2\n"}}`,
	"{\"tenant\":\"\xff\xfe\",\"backend\":\"caf\xc3\xa9\"}",
	"{\"params\":{\"k\xffey\":\"v\\u0041\"}}",
	`{"tenant":"\x"}`, `{"tenant":"\u12"}`, "{\"tenant\":\"a\tb\"}", `{"tenant":"a\`,
	// Numbers.
	`{"rhs":[01]}`, `{"rhs":[+1]}`, `{"rhs":[.5]}`, `{"rhs":[1.]}`, `{"rhs":[1e400]}`, `{"rhs":[NaN]}`,
	`{"rhs":[-]}`, `{"rhs":[1e]}`, `{"rhs":[1e+]}`, `{"rhs":[-0,1E+2,1e-400,2.5e-7,0.1,123456789012345678901234567890]}`,
	`{"procs":1.5}`, `{"procs":1e2}`, `{"procs":-0}`, `{"procs":99999999999999999999}`, `{"nrhs":-3}`,
	`{"operator":{"matrix":{"rowptr":[0,1.0]}}}`,
	// The float codec's edge cases: zeros, subnormals, the normal ends,
	// both sides of the 1e-6 and 1e21 layout cut-offs, 2^53±1, a decimal
	// halfway case, 19- and 20-digit mantissas, leading zeros.
	`{"rhs":[0,-0,5e-324,2.225073858507201e-308,2.2250738585072014e-308,1.7976931348623157e308,-1.7976931348623157e308]}`,
	`{"rhs":[9.999999999999999e-7,0.000001,1e-6,999999999999999900000,1e21,1e+21,9007199254740991,9007199254740992,9007199254740993]}`,
	`{"rhs":[1234567890123456789,12345678901234567890,0.12345678901234567891,0.000000000000000000000000000001234,0e5,1E+2,2.4703282292062328e-324]}`,
	`{"rhs":[1.7976931348623159e308]}`, `{"rhs":[-1e400]}`, `{"rhs":[0e99999,1e-99999]}`,
	`{"procs":9223372036854775807,"workers":-9223372036854775808}`, `{"procs":9223372036854775808}`,
	`{"procs":-9223372036854775809}`, `{"operator":{"version":12345678901234567890}}`, `{"nrhs":1E0}`,
	// Bytes after the top-level value.
	`{"tenant":"a"} garbage`, `{"tenant":"a"}{`, `{"tenant":"a"}]`, `{"tenant":"a"}}`,
	// Unknown fields and wrong types.
	`{"format":"sell"}`, `{"max_attempts":2}`, `{"poolKey":{}}`, `{"keyed":true}`, `{"batched":true}`,
	`{"operator":{"bogus":1}}`, `{"operator":{"matrix":{"nnz":1}}}`,
	`{"tenant":5}`, `{"rhs":"1"}`, `{"rhs":[true]}`, `{"rhs":[[1]]}`, `{"rhs":[{}]}`, `{"rhs":["1"]}`,
	`{"params":{"a":1}}`, `{"params":[]}`, `{"operator":[]}`, `{"operator":{"matrix":[]}}`,
	`{"return_solution":1}`, `{"return_solution":"true"}`, `{"failover":"x"}`, `{"failover":[1]}`,
	// Broken syntax.
	`{"rhs":[1,,2]}`, `{"rhs":[,]}`, `{"rhs":[,1]}`, `{"rhs":[1,]}`, `{"rhs":[1 2]}`, `{"rhs":[1}`, `{"rhs":[1,2`,
	`{"tenant":"a",}`, `{"tenant" "a"}`, `{"tenant":"a" "backend":"b"}`, `{,}`, `{"tenant":tru}`, `{"telemetry":truex}`,
	`{"rhs":[],"failover":[ ],"params":{},"operator":{"matrix":{}}}`,
	`{"failover":["a,b","c]d","e\"]"]}`,
}

// FuzzDecodeRequestMatchesJSON: decodeRequest refuses what
// json.Decoder (with DisallowUnknownFields) refuses, and what both
// accept decodes to the same request.
func FuzzDecodeRequestMatchesJSON(f *testing.F) {
	for _, body := range wireShapes(f) {
		f.Add(body)
	}
	for _, s := range wireSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want, got SolveRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		werr := dec.Decode(&want)
		gerr := decodeRequest(body, &got)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("body %q: encoding/json error %v, decodeRequest error %v", body, werr, gerr)
		}
		if werr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("body %q:\ndecodeRequest %#v\nencoding/json %#v", body, got, want)
		}
	})
}

// TestDecodeRequestUnknownField: the refusal names the field, which is
// what a client reads in the 400's message.
func TestDecodeRequestUnknownField(t *testing.T) {
	var req SolveRequest
	err := decodeRequest([]byte(`{"tenant":"a","format":"sell"}`), &req)
	if err == nil || !strings.Contains(err.Error(), `unknown field "format"`) {
		t.Fatalf("error %v, want one naming the unknown field", err)
	}
}

// floatsFrom reads raw as little-endian float64s, skipping NaN and ±Inf.
func floatsFrom(raw []byte) []float64 {
	var out []float64
	for ; len(raw) >= 8; raw = raw[8:] {
		if v := math.Float64frombits(binary.LittleEndian.Uint64(raw)); !math.IsNaN(v) && !math.IsInf(v, 0) {
			out = append(out, v)
		}
	}
	return out
}

// fuzzResponse builds a reply from fuzz inputs; flags picks the
// optional fields.
func fuzzResponse(tenant, backend, id, reason string, version, iters int, residual, wall float64, flags uint16, vals []float64) *SolveResponse {
	resp := &SolveResponse{
		Tenant: tenant, Backend: backend, OperatorID: id, OperatorVersion: version,
		Iterations: iters, Residual: residual, Converged: flags&1 != 0, FailReason: reason,
		Attempts: iters / 3, SessionReused: flags&2 != 0, Batched: flags&4 != 0, NRHS: version % 5,
		SolveWallS: wall, Solution: vals,
	}
	if flags&8 == 0 {
		return resp
	}
	rep := &telemetry.SolveReport{
		Schema: telemetry.SchemaSolveReport, Solver: backend, Procs: iters, Iterations: iters,
		FinalResidual: residual, Converged: flags&1 != 0, WallSeconds: wall,
	}
	if flags&16 != 0 {
		rep.Backend, rep.Path, rep.GlobalRows, rep.NNZ = tenant, id, version, len(vals)
	}
	if flags&32 != 0 {
		rep.Phases = map[string]float64{reason: wall, "setup": residual, tenant: 0}
	}
	if flags&64 != 0 {
		rep.Counters = map[string]int64{tenant: int64(version), "lisi.solves": int64(iters)}
	}
	if flags&128 != 0 {
		rep.Comm = &telemetry.CommStats{Sends: int64(iters), Recvs: int64(version), BytesSent: 8,
			BarrierEntries: 2, BarrierWaitSeconds: wall, BarrierParks: 1, RecvParks: 3, Collectives: 4}
	}
	if flags&256 != 0 {
		for i, v := range vals {
			rep.ResidualTrace = append(rep.ResidualTrace, telemetry.ResidualPoint{Iteration: i - 1, Residual: v})
		}
	}
	if flags&512 != 0 {
		rep.Labels = map[string]string{backend: tenant, id: reason, "backend": backend}
	}
	if flags&1024 != 0 {
		rep.Phases = map[string]float64{}
	}
	resp.Report = rep
	return resp
}

// FuzzAppendResponseMatchesJSON: for finite values, appendResponse
// writes json.Marshal's bytes and a newline.
func FuzzAppendResponseMatchesJSON(f *testing.F) {
	sol := make([]byte, 0, 8*8)
	for _, v := range []float64{1, -0.5, 1e-7, 1e21, 123456789.123, -2.2250738585072014e-308, 5e-324, math.MaxFloat64} {
		sol = binary.LittleEndian.AppendUint64(sol, math.Float64bits(v))
	}
	f.Add("bench", "superlu", "slu-c0", "none", 1, 0, 3.2e-17, 0.00123, uint16(1|2), sol)
	f.Add("<tenant & co>", "petsc\u2028\u2029", "caf\xc3\xa9\xff", "max_iterations\n\t\"\\", -7, 5000, 1e-6, 9.99e20, uint16(0x7fff), sol)
	f.Add("\x00\x1f\x7f", "", "\u00e9\U0001f600", "breakdown", 3, 12, -0.0, 1e-300, uint16(8|32), []byte{})
	f.Add("a", "b", "c", "d", 0, 0, 0.0, 0.0, uint16(8), []byte{})
	edge := make([]byte, 0, 16*8)
	for _, v := range []float64{0, math.Copysign(0, -1), math.Float64frombits(0x000FFFFFFFFFFFFF), 2.2250738585072014e-308,
		math.Nextafter(1e-6, 0), 1e-6, math.Nextafter(1e21, 0), 1e21, 1<<53 - 1, 1 << 53, 1<<53 + 2, 0.1, 1e23, -math.MaxFloat64} {
		edge = binary.LittleEndian.AppendUint64(edge, math.Float64bits(v))
	}
	f.Add("edge", "superlu", "slu-c0", "none", 2, 1, 5e-324, math.Nextafter(1e-6, 1), uint16(8|256), edge)
	f.Fuzz(func(t *testing.T, tenant, backend, id, reason string, version, iters int, residual, wall float64, flags uint16, raw []byte) {
		if math.IsNaN(residual) || math.IsInf(residual, 0) || math.IsNaN(wall) || math.IsInf(wall, 0) {
			t.Skip("non-finite values are written as null, which encoding/json refuses")
		}
		resp := fuzzResponse(tenant, backend, id, reason, version, iters, residual, wall, flags, floatsFrom(raw))
		want, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		if got := appendResponse(nil, resp); !bytes.Equal(got, want) {
			t.Fatalf("appendResponse:\n%s\njson.Marshal:\n%s", got, want)
		}
	})
}

// TestAppendResponseNonFinite: every NaN or ±Inf of a reply is null,
// so a breakdown still has a body that decodes.
func TestAppendResponseNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	resp := fuzzResponse("t", "petsc", "op", "breakdown", 1, 2, nan, 0.5, 8|32|256, []float64{nan, -inf, 1})
	resp.Report.FinalResidual = inf
	got := appendResponse(nil, resp)
	for _, want := range []string{`"residual":null`, `"solution":[null,null,1]`, `"final_residual":null`,
		`{"it":-1,"rnorm":null}`, `"setup":null`} {
		if !bytes.Contains(got, []byte(want)) {
			t.Errorf("reply lacks %s:\n%s", want, got)
		}
	}
	var back SolveResponse
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatalf("reply does not decode: %v\n%s", err, got)
	}
}

// TestWireAllocsConstant: reading a request and writing its reply
// allocate the same number of objects whatever the vector length — one
// right-hand side, one reply buffer and the request's strings, no
// per-element or per-growth allocation.
func TestWireAllocsConstant(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var counts []float64
	for _, n := range []int{64, 1024, 16384} {
		body := superluRequest(t, n)
		resp := &SolveResponse{Tenant: "bench", Backend: "superlu", OperatorID: "slu-c0", OperatorVersion: 1,
			Iterations: 1, Residual: 3e-16, Converged: true, FailReason: "none", Attempts: 1,
			SessionReused: true, NRHS: 1, SolveWallS: 8.3e-5, Solution: wireRHS(n)}
		counts = append(counts, testing.AllocsPerRun(5, func() {
			var req SolveRequest
			if err := decodeRequest(body, &req); err != nil {
				t.Fatal(err)
			}
			_ = appendResponse(nil, resp)
		}))
	}
	if counts[1] != counts[0] || counts[2] != counts[0] {
		t.Fatalf("decode + reply allocate %v objects at n = 64 / 1,024 / 16,384, want one constant", counts)
	}
}

// BenchmarkServiceWire is the service's JSON cost for one pooled
// superlu request at n = 1,024: read the request, write the reply with
// its solution, into a reused buffer as the handler does.
// scripts/benchguard.sh pins its allocs/op.
func BenchmarkServiceWire(b *testing.B) {
	const n = 1024
	body := superluRequest(b, n)
	resp := &SolveResponse{Tenant: "bench", Backend: "superlu", OperatorID: "slu-c0", OperatorVersion: 1,
		Iterations: 1, Residual: 3e-16, Converged: true, FailReason: "none", Attempts: 1,
		SessionReused: true, NRHS: 1, SolveWallS: 8.3e-5, Solution: wireRHS(n)}
	var buf []byte
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var req SolveRequest
		if err := decodeRequest(body, &req); err != nil {
			b.Fatal(err)
		}
		buf = appendResponse(buf[:0], resp)
	}
}
