(* Tests for lib/telemetry/json.ml, the one JSON codec: the parser is
   total and decodes escapes correctly, every report writer escapes
   hostile names so they read back unchanged, and every committed JSON
   artifact parses, with the numbers the bench gate reads pinned. *)

module Json = Lfi_telemetry.Json
module Snapshot = Lfi_libbox.Snapshot

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let parse_fails s =
  match Json.parse s with
  | exception Json.Parse_error _ -> true
  | _ -> false

let read_file f = In_channel.with_open_bin f In_channel.input_all

(* ---------------- parser ---------------- *)

let test_unicode_escapes () =
  checkb "non-hex \\u digits" true (parse_fails {|"\u00zz"|});
  checkb "truncated \\u escape" true (parse_fails {|"\u12"|});
  checks "BMP escape decodes to UTF-8" "\xe4\xb8\xad"
    (Json.str (Json.parse {|"\u4e2d"|}));
  checks "two-byte escape" "\xc3\xa9" (Json.str (Json.parse {|"\u00e9"|}));
  checks "surrogate pair" "\xf0\x9f\x98\x80"
    (Json.str (Json.parse {|"\ud83d\ude00"|}));
  checkb "lone high surrogate" true (parse_fails {|"\ud83d"|});
  checkb "lone low surrogate" true (parse_fails {|"\ude00x"|});
  checks "short escapes" "\"\\/\b\012\n\r\t"
    (Json.str (Json.parse {|"\"\\\/\b\f\n\r\t"|}))

let test_malformed_inputs () =
  List.iter
    (fun s -> checkb (Printf.sprintf "rejects %S" s) true (parse_fails s))
    [ ""; " "; "["; "[1,]"; "{\"a\" 1}"; "{\"a\":1,}"; "01"; "1."; ".5"; "-";
      "+1"; "1e"; "nan"; "tru"; "\"abc"; "\"a\x01b\""; "\"\\x\""; "[1] 2";
      "{1:2}"; String.make 100_000 '[' ]

let test_numbers () =
  checkb "int" true (Json.parse "-42" = Json.Int (-42));
  checkb "float keeps its decimals" true
    (Json.parse "3.250" = Json.Float (3.25, 3));
  checkb "exponent is a float" true (Json.num (Json.parse "1e3") = 1000.0);
  checkb "huge integer is a float" true
    (Json.num (Json.parse "123456789012345678901234567890") > 1e29);
  checkb "null reads as NaN" true (Float.is_nan (Json.num Json.Null))

(* a stray exception from any mutated frame is a bug: the snapshot
   decoder must fail with its own error *)
let test_snapshot_decoder_total () =
  let line = List.hd (String.split_on_char '\n' (read_file "../BENCH_serve_snap.jsonl")) in
  let bad = ref 0 in
  let stray = ref 0 in
  let decode s =
    match Snapshot.of_json s with
    | _ -> ()
    | exception Snapshot.Bad_snapshot _ -> incr bad
    | exception _ -> incr stray
  in
  decode {|"\u00zz"|};
  decode "{\"schema\": \"lfi-snap/v2\", \"workload\": \"\\u00zz\"}";
  decode "{\"schema\": \"lfi-snap/v2\", \"seq\": 1.5}";
  let seed = ref 12345 in
  let next bound =
    seed := ((!seed * 1103515245) + 12345) land 0x3FFFFFFF;
    !seed mod bound
  in
  let bytes = "\"\\{}[],:0123456789.-eE ntfu\x01\xff" in
  for _ = 1 to 3000 do
    let b = Bytes.of_string line in
    for _ = 1 to 1 + next 3 do
      Bytes.set b (next (Bytes.length b)) bytes.[next (String.length bytes)]
    done;
    decode (Bytes.to_string b);
    decode (String.sub line 0 (next (String.length line)))
  done;
  checki "no stray exceptions" 0 !stray;
  checkb "mutants rejected" true (!bad > 1000)

(* ---------------- printer ---------------- *)

let test_printer () =
  checks "NaN and infinity print as null" "[null, null, 1.50, 2]"
    (Json.to_string
       (Array
          [ Json.float Float.nan; Json.float Float.infinity;
            Json.float ~digits:2 1.5; Json.float ~digits:0 2.4 ]));
  checks "compact separators" {|{"a":[1,true],"b":null}|}
    (Json.to_string ~compact:true
       (Object [ ("a", Array [ Int 1; Bool true ]); ("b", Null) ]));
  checks "block layout closes on its own line"
    "{\n  \"a\": 1,\n  \"b\": [\n    2,\n    3\n  ]\n}"
    (Json.to_string (Json.block [ ("a", Int 1); ("b", Json.rows [ Int 2; Int 3 ]) ]));
  checks "hanging layout closes after the last item"
    "{\"a\": 1,\n  \"b\": 2}"
    (Json.to_string (Object [ ("a", Int 1); ("b", Nl (Int 2)) ]));
  let v =
    Json.Object
      [ ("s", String "x\"\\\n\t\x01\xc3\xa9"); ("f", Float (-0.125, 3));
        ("l", Array [ Int max_int; Int min_int; Bool false; Null ]) ]
  in
  checkb "print -> parse round trip" true (Json.parse (Json.to_string v) = v)

(* ---------------- hostile names through every writer ---------------- *)

(* a quote, a backslash, a control byte and UTF-8 é *)
let hostile = "a\"b\\c\x01d\xc3\xa9"

let parses what s =
  match Json.parse s with
  | v -> v
  | exception Json.Parse_error msg -> Alcotest.failf "%s: %s" what msg

let name_back what v = checks what hostile (Json.str v)
let first l = List.hd (Json.arr l)

let test_hostile_overhead () =
  let site =
    { Lfi_telemetry.Overhead.pc = 0x10000; category = Guard; inserted = true;
      orig_pc = 0x10000 }
  in
  let acc = Lfi_telemetry.Overhead.create ~base:0 [ site ] in
  Lfi_telemetry.Overhead.charge acc 0x10000 1.0;
  let r =
    Lfi_telemetry.Overhead.report ~workload:hostile ~uarch:hostile
      ~total_cycles:10.0 ~total_insns:10 ~native_cycles:(Some 8.0)
      ~levels:[ { lv_name = hostile; lv_cycles = 10.0 } ]
      ~symbol_of:(fun _ -> Some hostile) ~disasm_of:(fun _ -> hostile)
      ~guard_insn:(fun _ -> true) acc
  in
  let j = parses "overhead" r in
  name_back "workload" (Json.field "workload" j);
  name_back "uarch" (Json.field "uarch" j);
  name_back "level" (Json.field "opt" (first (Json.field "levels" j)));
  name_back "symbol" (Json.field "symbol" (first (Json.field "symbols" j)));
  name_back "hot-site symbol" (Json.field "symbol" (first (Json.field "hot_sites" j)));
  name_back "insn" (Json.field "insn" (first (Json.field "hot_sites" j)))

let test_hostile_postmortem () =
  let open Lfi_telemetry.Postmortem in
  let r =
    { pid = 1; personality = hostile; reason = hostile; base = 0L; insns = 0;
      cycles = 0.0; fault_addr = Some 4L; fault_access = Some hostile; pc = 0L;
      sp = 0L; regs = Array.make 31 0L; flags = "nzcv";
      backtrace = [ { fr_pc = 0L; fr_sym = Some hostile; fr_off = 0 } ];
      disasm = [ { dl_pc = 0L; dl_word = 0; dl_text = hostile; dl_current = true } ];
      hexdump = [ { hr_addr = 0L; hr_bytes = [| Some 1; None |] } ];
      pages = [ { pg_addr = 0L; pg_perm = "r--" } ];
      layout = [ { rg_lo = 0L; rg_hi = 16L; rg_perm = "r-x"; rg_label = hostile } ];
      flight_total = 1;
      flight = [ { Lfi_telemetry.Flight.seq = 0; kind = 0; pc = 0; arg = 0 } ];
      clamps = 0 }
  in
  let j = parses "postmortem" (to_json r) in
  name_back "personality" (Json.field "personality" j);
  name_back "reason" (Json.field "reason" j);
  name_back "fault access" (Json.field "access" (Json.field "fault" j));
  name_back "frame symbol" (Json.field "sym" (first (Json.field "backtrace" j)));
  name_back "disasm" (Json.field "text" (first (Json.field "disasm" j)));
  name_back "region label" (Json.field "label" (first (Json.field "layout" j)))

let test_hostile_trace () =
  let module Trace = Lfi_telemetry.Trace in
  let t = Trace.create () in
  Trace.process_name t ~pid:1 ~name:hostile;
  Trace.complete t ~name:hostile ~cat:hostile ~ts:1.0 ~dur:2.0 ~pid:1 ~tid:1
    ~args:[ (hostile, Json.String hostile) ];
  Trace.instant t ~name:hostile ~cat:"c" ~ts:3.0 ~pid:1 ~tid:1 ~args:[];
  let events = Json.arr (Json.field "traceEvents" (parses "trace" (Trace.to_string t))) in
  checki "three events" 3 (List.length events);
  name_back "process name" (Json.field "name" (Json.field "args" (List.nth events 0)));
  let slice = List.nth events 1 in
  name_back "event name" (Json.field "name" slice);
  name_back "category" (Json.field "cat" slice);
  name_back "arg" (Json.field hostile (Json.field "args" slice))

let test_hostile_prover () =
  let open Lfi_prover.Report in
  let r =
    { tier = hostile; weakenings = [ hostile ];
      strata =
        [ { s_name = hostile; candidates = 1; rejected = 0; accepted = 1;
            proved = 0; holes = 1;
            samples = [ { word = 0; disasm = hostile; clause = hostile; detail = hostile } ] } ];
      elapsed_ms = None }
  in
  let j = parses "prover" (to_json r) in
  name_back "weakening" (first (Json.field "weakenings" j));
  let s = first (Json.field "strata" j) in
  name_back "stratum" (Json.field "name" s);
  name_back "hole disasm" (Json.field "disasm" (first (Json.field "samples" s)))

(* serve report, suite summary and snapshot frames: the workload and
   tenant names are free-form *)
let test_hostile_serve () =
  let module Serve = Lfi_libbox.Serve in
  let r =
    Serve.run
      ~spec:{ Lfi_workloads.Libs.xzbox with l_short = hostile }
      ~tenants:[ { Lfi_sched.Tenant.default_spec with t_name = hostile } ]
      ~pool:1 ~requests:12 ~seed:1 ~snapshot_every:6 ()
  in
  let j = parses "serve" r.Serve.json in
  checkb "doc is what json prints" true (Json.parse r.Serve.json = j);
  name_back "workload" (Json.field "workload" j);
  name_back "tenant" (Json.field "tenant" (first (Json.field "tenants" j)));
  let summary = parses "summary" (Json.to_string r.Serve.summary) in
  name_back "summary tenant" (Json.field "tenant" (first (Json.field "per_tenant" summary)));
  List.iter
    (fun line ->
      let f = Snapshot.of_json line in
      checks "frame workload" hostile f.Snapshot.workload;
      checks "frame tenant" hostile (List.hd f.Snapshot.tenants).Snapshot.tn_name;
      checks "frame round trip" line (Snapshot.to_json f))
    r.Serve.snapshots;
  let frame =
    { (Snapshot.of_json (List.hd r.Serve.snapshots)) with
      Snapshot.phases = [ (hostile, 1.0) ];
      alerts =
        [ { Lfi_telemetry.Slo.a_export = hostile; a_window = 1;
            a_kind = Latency; a_fast = 2.0; a_slow = 1.0 } ] }
  in
  let back = Snapshot.of_json (Snapshot.to_json frame) in
  checks "phase name" hostile (fst (List.hd back.Snapshot.phases));
  checks "alert export" hostile (List.hd back.Snapshot.alerts).Lfi_telemetry.Slo.a_export

(* writers that carry no free-form name still print valid JSON *)
let test_nameless_writers () =
  let h = Lfi_telemetry.Histogram.create () in
  List.iter (Lfi_telemetry.Histogram.observe h) [ 3.0; 700.0; 70000.0 ];
  let j = parses "histogram" (Lfi_telemetry.Histogram.to_json h) in
  checki "histogram count" 3 (Json.int (Json.field "count" j));
  let m1 = Lfi_emulator.Cost_model.m1 in
  let hj = parses "handoff"
      (Json.to_string (Lfi_experiments.Handoff.to_json (Lfi_experiments.Handoff.measure m1)))
  in
  checkb "handoff iters" true (Json.int (Json.field "iters" hj) > 0);
  let rt = Lfi_runtime.Runtime.create () in
  ignore (Lfi_runtime.Runtime.enable_metrics rt);
  let elf =
    Lfi_experiments.Table5.build Lfi_core.Config.o2
      Lfi_workloads.Microbench.yield_prog
  in
  let p = Lfi_runtime.Runtime.load rt ~arg:0L ~personality:Lfi_runtime.Proc.Lfi elf in
  ignore (Lfi_runtime.Runtime.run_one rt p);
  let mj = parses "metrics" (Lfi_runtime.Runtime.metrics_json rt) in
  checkb "metrics emulator section" true
    (Json.int (Json.field "total" (Json.field "insn_mix" (Json.field "emulator" mj))) > 0)

(* ---------------- committed artifacts ---------------- *)

let committed_json () =
  let pick dir pred =
    Sys.readdir dir |> Array.to_list |> List.filter pred |> List.sort compare
    |> List.map (Filename.concat dir)
  in
  pick ".." (fun f ->
      String.starts_with ~prefix:"BENCH_" f && Filename.check_suffix f ".json")
  @ pick "." (fun f -> Filename.check_suffix f ".json")

let test_artifacts_parse () =
  let files = committed_json () in
  checkb "found the BENCH files" true
    (List.mem "../BENCH_serve.json" files && List.mem "../BENCH_emulator.json" files);
  List.iter (fun f -> ignore (parses f (read_file f))) files;
  List.iter
    (fun f ->
      String.split_on_char '\n' (read_file f)
      |> List.iteri (fun i line ->
             if line <> "" then
               ignore (parses (Printf.sprintf "%s line %d" f (i + 1)) line)))
    [ "../BENCH_serve_snap.jsonl"; "snap_v1_fixture.jsonl" ]

(* what the bench --compare gate reads, as its earlier text scanner
   extracted it from the committed files *)
let rows doc section key value =
  List.map
    (fun r ->
      Printf.sprintf "%s %s %s %g"
        (Json.str (Json.field "workload" r)) (Json.str (Json.field "uarch" r))
        (Json.str (Json.field key r)) (Json.num (Json.field value r)))
    (Json.arr (Json.field section doc))

let test_gate_inputs_pinned () =
  let emu = Json.parse (read_file "../BENCH_emulator.json") in
  Alcotest.(check (list string)) "emulator samples"
    [ "mcf m1 native 6.9134e+07"; "mcf m1 lfi-o2 7.16032e+07";
      "mcf t2a native 6.83046e+07"; "mcf t2a lfi-o2 5.51241e+07";
      "xz m1 native 5.43113e+07"; "xz m1 lfi-o2 5.75382e+07";
      "xz t2a native 5.78237e+07"; "xz t2a lfi-o2 6.30283e+07" ]
    (rows emu "emulator" "system" "insns_per_sec");
  let ips =
    List.map (fun r -> Json.num (Json.field "insns_per_sec" r))
      (Json.arr (Json.field "emulator" emu))
  in
  checkb "emulator samples exact" true
    (ips = [ 69133962.; 71603165.; 68304619.; 55124106.; 54311349.; 57538167.;
             57823688.; 63028255. ]);
  Alcotest.(check (list string)) "overhead rows"
    [ "mcf m1 O0 9.32"; "mcf m1 O1 3.28"; "mcf m1 O2 3.28"; "mcf t2a O0 10.46";
      "mcf t2a O1 3.68"; "mcf t2a O2 3.68"; "xz m1 O0 18.48"; "xz m1 O1 7.1";
      "xz m1 O2 7.1"; "xz t2a O0 20.06"; "xz t2a O1 7.7"; "xz t2a O2 7.7" ]
    (rows emu "overhead" "opt" "overhead_pct");
  let serve = Json.parse (read_file "../BENCH_serve.json") in
  checkb "call_p99" true (Json.num (Json.field "call_p99" serve) = 32768.0);
  checkb "closed_loop p999" true
    (Json.num (Json.field "p999" (Json.field "closed_loop" serve)) = 524288.0)

let mk name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "json"
    [
      ( "parser",
        [ mk "unicode escapes" test_unicode_escapes;
          mk "malformed inputs" test_malformed_inputs; mk "numbers" test_numbers;
          mk "snapshot decoder total" test_snapshot_decoder_total ] );
      ("printer", [ mk "layout and floats" test_printer ]);
      ( "hostile names",
        [ mk "overhead" test_hostile_overhead; mk "postmortem" test_hostile_postmortem;
          mk "trace" test_hostile_trace; mk "prover" test_hostile_prover;
          mk "serve and snapshots" test_hostile_serve;
          mk "nameless writers" test_nameless_writers ] );
      ( "artifacts",
        [ mk "committed files parse" test_artifacts_parse;
          mk "gate inputs pinned" test_gate_inputs_pinned ] );
    ]
