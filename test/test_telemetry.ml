(* Tests for the telemetry subsystem: metric counters, trace
   determinism, pc-sampling profiles, ELF symbol round-trips, and the
   verifier's diagnostic format. *)

open Lfi_arm64

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let build ?(rewrite = true) ?config asm =
  let src = Parser.parse_string_exn asm in
  let src = if rewrite then fst (Lfi_core.Rewriter.rewrite ?config src) else src in
  Lfi_elf.Elf.of_image (Assemble.assemble src)

(* O0 keeps one explicit guard instruction per sandboxed access, which
   the golden test below wants to see in the instruction mix. *)
let o0 = { Lfi_core.Config.default with Lfi_core.Config.opt = Lfi_core.Config.O0 }

(* A small deterministic workload: a counted store/load loop plus one
   write runtime call, exercising the decode cache, the TLB and every
   instruction class the mix counters distinguish. *)
let loop_asm =
  "_start:\n\
   \tmovz x0, #64\n\
   \tadr x1, buf\n\
   loop:\n\
   \tstr x0, [x1]\n\
   \tldr x2, [x1]\n\
   \tsub x0, x0, #1\n\
   \tcbnz x0, loop\n\
   \tmovz x0, #0\n\
   \tsvc #1\n\
   \tb _start\n\
   .data\n\
   buf:\n\
   \t.quad 0\n"

(* ---------------- metrics ---------------- *)

let test_metrics_off_by_default () =
  let rt = Lfi_runtime.Runtime.create () in
  let p =
    Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi
      (build loop_asm)
  in
  ignore (Lfi_runtime.Runtime.run_one rt p);
  checkb "no metrics handle"
    (rt.Lfi_runtime.Runtime.machine.Lfi_emulator.Machine.metrics = None)
    true;
  checkb "no profile handle"
    (rt.Lfi_runtime.Runtime.machine.Lfi_emulator.Machine.profile = None)
    true;
  (* a snapshot taken without enabling sees zero emulator counters *)
  let snap = Lfi_runtime.Runtime.metrics_snapshot rt in
  checki "decode hits stay 0" 0
    snap.Lfi_telemetry.Metrics.emu.Lfi_telemetry.Metrics.decode_hits;
  checki "insn mix stays 0" 0
    (Lfi_telemetry.Metrics.insn_total snap.Lfi_telemetry.Metrics.emu)

let run_with_metrics () =
  let rt = Lfi_runtime.Runtime.create () in
  let e = Lfi_runtime.Runtime.enable_metrics rt in
  let p =
    Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi
      (build ~config:o0 loop_asm)
  in
  ignore (Lfi_runtime.Runtime.run_one rt p);
  (rt, e)

(* Golden counter values for [loop_asm]: the emulator is deterministic,
   so these are exact.  If a legitimate emulator change shifts them,
   re-derive with: dune exec test/test_telemetry.exe (the failure
   message prints the actual values). *)
let test_metrics_golden () =
  let rt, e = run_with_metrics () in
  let snap = Lfi_runtime.Runtime.metrics_snapshot rt in
  let open Lfi_telemetry.Metrics in
  let insns = rt.Lfi_runtime.Runtime.machine.Lfi_emulator.Machine.insns in
  checki "every insn went through the decode cache" insns
    (e.decode_hits + e.decode_misses);
  checki "mix sums to insns" insns (insn_total e);
  checki "decode misses (distinct slots decoded)" 11 e.decode_misses;
  checki "decode hits" 378 e.decode_hits;
  checki "loads (64 ldr + 1 table load)" 65 e.loads;
  checki "stores" 64 e.stores;
  checki "branches (64 cbnz + blr x30)" 65 e.branches;
  checki "guards (one per sandboxed access at O0)" 128 e.guards;
  checki "tlb hits" 127 snap.tlb_hits;
  checki "tlb misses" 2 snap.tlb_misses;
  checki "faults" 0 e.faults;
  checkb "translation cache hit rate high"
    (hit_rate ~hits:snap.tc_hits ~misses:snap.tc_misses > 0.9)
    true

(* cheap substring check, so the tests need no JSON parser *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_metrics_json_shape () =
  let rt, _ = run_with_metrics () in
  let j = Lfi_runtime.Runtime.metrics_json rt in
  List.iter
    (fun key -> checkb key (contains j key) true)
    [
      "\"decode_cache\"";
      "\"translation_cache\"";
      "\"tlb\"";
      "\"insn_mix\"";
      "\"runtime\"";
      "\"rtcall_latency\"";
      "\"exit\"";
    ]

(* ---------------- metrics parity across dispatch modes ---------------- *)

(* Armed metrics keep block dispatch: a block charges its static
   tallies after it runs (or its retired prefix after a fault or a
   self-invalidation), so every counter must equal the step path's. *)

let show_emu (e : Lfi_telemetry.Metrics.emu) =
  let open Lfi_telemetry.Metrics in
  Printf.sprintf
    "decode %d/%d inval %d faults %d loads %d stores %d branches %d guards \
     %d other %d"
    e.decode_hits e.decode_misses e.decode_invalidations e.faults e.loads
    e.stores e.branches e.guards e.other

(* Run [f] on a fresh machine in each dispatch mode with metrics armed;
   [f] returns the machine it ran, the live counters and the number of
   instructions retired while they were armed.  Block mode must really
   have dispatched blocks (no deopt), and both modes must agree on
   every counter and on the instruction count. *)
let check_parity name
    (f : unit -> Lfi_emulator.Machine.t * Lfi_telemetry.Metrics.emu * int) =
  let in_mode v =
    let saved = !Lfi_emulator.Machine.superblocks_default in
    Lfi_emulator.Machine.superblocks_default := v;
    Fun.protect
      ~finally:(fun () -> Lfi_emulator.Machine.superblocks_default := saved)
      f
  in
  let mb, eb, nb = in_mode true and ms, es, _ = in_mode false in
  checkb (name ^ ": blocks ran with metrics armed") true
    (mb.Lfi_emulator.Machine.blk_execs > 0);
  checki (name ^ ": insns") ms.Lfi_emulator.Machine.insns
    mb.Lfi_emulator.Machine.insns;
  checks (name ^ ": counters") (show_emu es) (show_emu eb);
  checki (name ^ ": every retired insn counted once") nb
    (eb.Lfi_telemetry.Metrics.decode_hits
    + eb.Lfi_telemetry.Metrics.decode_misses)

let runtime_parity (elf : unit -> Lfi_elf.Elf.t) () =
  let rt = Lfi_runtime.Runtime.create () in
  let e = Lfi_runtime.Runtime.enable_metrics rt in
  let p =
    Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi (elf ())
  in
  ignore (Lfi_runtime.Runtime.run_one rt p);
  let m = rt.Lfi_runtime.Runtime.machine in
  (m, e, m.Lfi_emulator.Machine.insns)

let test_parity_loop () =
  check_parity "loop" (runtime_parity (fun () -> build ~config:o0 loop_asm))

(* Metrics armed after part of the program ran unobserved: the blocks
   lowered by then get their tallies when metrics are armed. *)
let test_parity_armed_warm () =
  check_parity "armed warm" (fun () ->
      let rt = Lfi_runtime.Runtime.create () in
      let p =
        Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi
          (build ~config:o0 loop_asm)
      in
      let m = rt.Lfi_runtime.Runtime.machine in
      Lfi_emulator.Machine.restore m p.Lfi_runtime.Proc.snapshot;
      (match Lfi_emulator.Exec.run m ~quantum:200 with
      | Lfi_emulator.Exec.Quantum_expired -> ()
      | _ -> Alcotest.fail "warm-up left the loop");
      if m.Lfi_emulator.Machine.blocks_enabled then
        checkb "blocks lowered before arming" true
          (m.Lfi_emulator.Machine.blk_builds > 0);
      let warm = m.Lfi_emulator.Machine.insns in
      let e = Lfi_runtime.Runtime.enable_metrics rt in
      ignore (Lfi_runtime.Runtime.run_one rt p);
      (m, e, m.Lfi_emulator.Machine.insns - warm))

(* crashy faults mid-block (a wild read from inside a lowered body),
   after which lowering has decoded words that never run *)
let test_parity_crashy () =
  let elf () =
    match Lfi_workloads.Registry.find "crashy" with
    | None -> Alcotest.fail "crashy workload not registered"
    | Some w ->
        let src = Lfi_minic.Compile.compile w.Lfi_workloads.Common.program in
        Lfi_elf.Elf.of_image
          (Assemble.assemble (fst (Lfi_core.Rewriter.rewrite src)))
  in
  check_parity "crashy" (fun () ->
      let m, e, n = runtime_parity elf () in
      checki "crashy faulted once" 1 e.Lfi_telemetry.Metrics.faults;
      (m, e, n))

(* A block on a W+X page that patches its own next instruction: the
   store invalidates the block mid-body, execution resumes at the
   patched word, and a second run replays the patched code from the
   caches. *)
let test_parity_self_modifying () =
  let open Lfi_emulator in
  let word asm =
    Int32.to_int
      (Bytes.get_int32_le (Assemble.assemble_string asm).Assemble.text 0)
    land 0xffffffff
  in
  let w = word "_start:\n\tmovz x0, #3\n" in
  let code =
    (Assemble.assemble_string
       (Printf.sprintf
          "_start:\n\tadr x1, patch\n\tmovz w2, #%d\n\
           \tmovk w2, #%d, lsl #16\n\tstr w2, [x1]\n\
           patch:\n\tmovz x0, #1\n\tsvc #1\n"
          (w land 0xffff) (w lsr 16)))
      .Assemble.text
  in
  check_parity "self-modifying" (fun () ->
      let mem = Memory.create () in
      let m = Machine.create mem in
      let e = Lfi_telemetry.Metrics.create_emu () in
      Block.arm_metrics m e;
      let base = 0x10000L in
      Memory.map mem ~addr:base ~len:Memory.page_size
        ~perm:{ Memory.r = true; w = true; x = true };
      for _ = 1 to 2 do
        Memory.write_bytes mem base code;
        m.Machine.pc <- base;
        match Exec.run m ~quantum:100 with
        | Exec.Trap (Exec.Svc_trap 1) ->
            checki "patched code ran" 3 (Int64.to_int m.Machine.regs.(0))
        | _ -> Alcotest.fail "did not reach svc #1"
      done;
      checkb "the store invalidated decoded code" true
        (e.Lfi_telemetry.Metrics.decode_invalidations > 0);
      (m, e, m.Machine.insns))

(* A libbox call killed by its instruction budget: the last quantum is
   shorter than the next block, so block mode single-steps the tail. *)
let test_parity_budget_kill () =
  check_parity "budget kill" (fun () ->
      let rt =
        Lfi_runtime.Runtime.create
          ~config:{ Lfi_runtime.Runtime.default_config with verify = false }
          ()
      in
      let e = Lfi_runtime.Runtime.enable_metrics rt in
      let lib =
        Lfi_libbox.Library.create ~name:"xzbox"
          ~exports:[ "checksum" ]
          Lfi_workloads.Libs.xzbox.Lfi_libbox.Api.l_program
      in
      let inst = Lfi_libbox.Instance.create ~insn_budget:20_000 rt lib in
      (match
         Lfi_libbox.Instance.call inst "checksum"
           [ Lfi_libbox.Api.In (Bytes.make 20_000 'x');
             Lfi_libbox.Api.I 20_000L ]
       with
      | Error (Lfi_libbox.Api.Killed _) -> ()
      | _ -> Alcotest.fail "runaway not killed");
      let m = rt.Lfi_runtime.Runtime.machine in
      if m.Lfi_emulator.Machine.blocks_enabled then
        checkb "quantum tails single-stepped" true
          (m.Lfi_emulator.Machine.blk_deopts > 0);
      (m, e, m.Lfi_emulator.Machine.insns))

(* ---------------- trace determinism ---------------- *)

let trace_of_run () =
  let rt = Lfi_runtime.Runtime.create () in
  let t = Lfi_runtime.Runtime.enable_trace rt in
  let p =
    Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi
      (build loop_asm)
  in
  ignore (Lfi_runtime.Runtime.run_one rt p);
  Lfi_telemetry.Trace.to_string t

let test_trace_deterministic () =
  let a = trace_of_run () and b = trace_of_run () in
  checkb "two runs, byte-identical traces" (String.equal a b) true;
  checkb "trace is non-trivial" (String.length a > 200) true;
  checkb "has a complete event" (contains a "\"ph\": \"X\"") true

let test_trace_tracks () =
  let s = trace_of_run () in
  checkb "process named" (contains s "lfi-runtime") true;
  checkb "sandbox track named" (contains s "sandbox 1 (lfi)") true;
  checkb "exit call traced" (contains s "\"name\": \"exit\"") true

(* ---------------- profiling ---------------- *)

let test_profile_samples_land () =
  let rt = Lfi_runtime.Runtime.create () in
  ignore (Lfi_runtime.Runtime.enable_profile ~period:16 rt);
  let p =
    Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi
      (build loop_asm)
  in
  ignore (Lfi_runtime.Runtime.run_one rt p);
  match Lfi_runtime.Runtime.profile_report rt with
  | [ (p', lines) ] ->
      checki "report is for the sandbox" p.Lfi_runtime.Proc.pid
        p'.Lfi_runtime.Proc.pid;
      let total =
        List.fold_left (fun a l -> a + l.Lfi_telemetry.Profile.hits) 0 lines
      in
      checkb "collected samples" (total > 10) true;
      (* the loop body dominates; it lives under the _start symbol *)
      (match lines with
      | top :: _ ->
          checks "hottest symbol" "loop" top.Lfi_telemetry.Profile.name;
          checkb "dominates" (top.Lfi_telemetry.Profile.fraction > 0.5) true
      | [] -> Alcotest.fail "empty profile")
  | l -> Alcotest.failf "expected 1 profile entry, got %d" (List.length l)

let test_profile_deterministic () =
  let run () =
    let rt = Lfi_runtime.Runtime.create () in
    ignore (Lfi_runtime.Runtime.enable_profile ~period:64 rt);
    let p =
      Lfi_runtime.Runtime.load rt ~personality:Lfi_runtime.Proc.Lfi
        (build loop_asm)
    in
    ignore (Lfi_runtime.Runtime.run_one rt p);
    List.concat_map
      (fun (_, lines) ->
        List.map
          (fun l ->
            Printf.sprintf "%s=%d" l.Lfi_telemetry.Profile.name
              l.Lfi_telemetry.Profile.hits)
          lines)
      (Lfi_runtime.Runtime.profile_report rt)
    |> String.concat ","
  in
  checks "identical flat profiles" (run ()) (run ())

let test_sym_resolve () =
  let tbl =
    Lfi_telemetry.Profile.sym_table
      [ ("main", 0x100); (".Llocal", 0x110); ("helper", 0x200) ]
  in
  let r off = Lfi_telemetry.Profile.resolve tbl off in
  Alcotest.(check (option string)) "below first" None (r 0xff);
  Alcotest.(check (option string)) "at main" (Some "main") (r 0x100);
  Alcotest.(check (option string)) "local dropped" (Some "main") (r 0x118);
  Alcotest.(check (option string)) "at helper" (Some "helper") (r 0x200);
  Alcotest.(check (option string)) "past end" (Some "helper") (r 0x9999)

(* ---------------- histograms ---------------- *)

let test_histogram () =
  let h = Lfi_telemetry.Histogram.create () in
  List.iter (fun v -> Lfi_telemetry.Histogram.observe h v) [ 0.5; 1.0; 3.0; 100.0 ];
  checki "count" 4 h.Lfi_telemetry.Histogram.count;
  checkb "mean" (abs_float (Lfi_telemetry.Histogram.mean h -. 26.125) < 1e-9) true;
  checki "bucket of 0" 0 (Lfi_telemetry.Histogram.bucket_of 0);
  checki "bucket of 1" 1 (Lfi_telemetry.Histogram.bucket_of 1);
  checki "bucket of 2" 2 (Lfi_telemetry.Histogram.bucket_of 2);
  checki "bucket of 3" 2 (Lfi_telemetry.Histogram.bucket_of 3);
  checki "bucket of 4" 3 (Lfi_telemetry.Histogram.bucket_of 4)

let test_histogram_empty_percentile () =
  let h = Lfi_telemetry.Histogram.create () in
  (* an empty histogram has no percentile; NaN serializes as null in
     the bench JSON rather than a fake 0 *)
  checkb "empty p99 is nan"
    (Float.is_nan (Lfi_telemetry.Histogram.percentile h 0.99))
    true;
  Lfi_telemetry.Histogram.observe h 5.0;
  checkb "one observation makes it finite"
    (Float.is_nan (Lfi_telemetry.Histogram.percentile h 0.99))
    false

(* ---------------- windows ---------------- *)

module W = Lfi_telemetry.Window

let test_window_rollover () =
  let w = W.create ~depth:4 ~width:100.0 () in
  W.observe w ~now:10.0 ~latency:8.0 ~insns:5 ~over:false;
  checki "window 0 current" 0 (W.cur w);
  W.observe w ~now:150.0 ~latency:16.0 ~insns:7 ~over:true;
  checki "boundary crossed" 1 (W.cur w);
  checki "spanned" 2 (W.spanned w);
  (* windows are left-closed: cycle 200 opens window 2 *)
  W.observe w ~now:200.0 ~latency:4.0 ~insns:1 ~over:false;
  checki "left-closed boundary" 2 (W.cur w);
  (* a jump farther than the ring evicts the oldest windows *)
  W.observe w ~now:1000.0 ~latency:2.0 ~insns:1 ~over:false;
  checki "jumped to window 10" 10 (W.cur w);
  checki "evicted count" 7 (W.evicted w);
  checkb "window 0 off the ring" (W.slot_for w 0 = None) true;
  let r = W.range w ~lo:0 ~hi:10 in
  checki "only the retained observation counted" 1 r.W.r_ok;
  checki "whole-run counters unaffected by eviction" 4 (W.total_ok w)

let test_window_merge_invariant () =
  let w = W.create ~depth:64 ~width:50.0 () in
  for k = 1 to 500 do
    let now = float_of_int (k * 5) in
    if k mod 7 = 0 then W.fail w ~now
    else
      W.observe w ~now
        ~latency:(float_of_int (k * 37 mod 2000))
        ~insns:k ~over:(k mod 11 = 0)
  done;
  (* 2500 cycles / 50-cycle windows = 51 windows < depth 64 *)
  checki "nothing evicted" 0 (W.evicted w);
  (* bucket counts are exact under merge, so merging every retained
     window reproduces the whole-run histogram bit for bit *)
  checks "merged equals whole-run total"
    (Lfi_telemetry.Histogram.to_json (W.total w))
    (Lfi_telemetry.Histogram.to_json (W.merged w));
  let r = W.range w ~lo:0 ~hi:(W.cur w) in
  checki "ok counters add up" (W.total_ok w) r.W.r_ok;
  checki "err counters add up" (W.total_err w) r.W.r_err;
  checki "insns add up" (W.total_insns w) r.W.r_insns

(* ---------------- spans ---------------- *)

let test_span_accumulate () =
  let open Lfi_telemetry in
  let sp = Span.create () in
  Span.start sp "checksum";
  Span.set sp Span.Gate_in 10.0;
  Span.set sp Span.Exec 100.0;
  checkb "total sums phases" (abs_float (Span.total sp -. 110.0) < 1e-9) true;
  let acc = Array.make Span.nphases 0.0 in
  Span.accumulate sp acc;
  Span.accumulate sp acc;
  checkb "accumulates across requests"
    (abs_float (acc.(Span.index Span.Exec) -. 200.0) < 1e-9)
    true;
  Span.start sp "other";
  checkb "start rewinds the record" (Span.total sp = 0.0) true

(* ---------------- ELF symbols ---------------- *)

let test_elf_symbol_roundtrip () =
  let elf = build loop_asm in
  checkb "of_image collects symbols"
    (List.mem_assoc "_start" elf.Lfi_elf.Elf.symbols)
    true;
  let bytes = Lfi_elf.Elf.write elf in
  let elf' = Lfi_elf.Elf.read bytes in
  Alcotest.(check (list (pair string int)))
    "symbols survive write/read" elf.Lfi_elf.Elf.symbols
    elf'.Lfi_elf.Elf.symbols;
  (* loadable size excludes the symbol table *)
  checkb "total_size below file size"
    (Lfi_elf.Elf.total_size elf < Bytes.length bytes)
    true

let test_elf_no_symbols_unchanged () =
  let elf = build loop_asm in
  let bare = { elf with Lfi_elf.Elf.symbols = [] } in
  let bytes = Lfi_elf.Elf.write bare in
  checki "no section headers when symbol-free"
    (Lfi_elf.Elf.total_size bare) (Bytes.length bytes);
  let elf' = Lfi_elf.Elf.read bytes in
  Alcotest.(check (list (pair string int))) "reads back empty" []
    elf'.Lfi_elf.Elf.symbols

(* ---------------- verifier diagnostics ---------------- *)

let test_verifier_report_format () =
  (* a store through an unguarded register, with known neighbours *)
  let asm =
    "_start:\n\
     \tmovz x1, #1\n\
     \tmovz x2, #2\n\
     \tstr x1, [x2]\n\
     \tmovz x0, #0\n\
     \tmovz x3, #3\n"
  in
  let img = Assemble.assemble (Parser.parse_string_exn asm) in
  match
    Lfi_verifier.Verifier.verify ~origin:0x10000 ~code:img.Assemble.text ()
  with
  | Ok _ -> Alcotest.fail "unguarded store verified"
  | Error [ v ] ->
      checki "pc" 0x10008 v.Lfi_verifier.Verifier.pc;
      checki "offset" 0x8 v.Lfi_verifier.Verifier.offset;
      let msg = Format.asprintf "%a" Lfi_verifier.Verifier.pp_violation v in
      checks "report format"
        ("0x10008 (+0x8): str x1, [x2]: unguarded memory access via x2\n\
         \    0x10000:  movz x1, #1\n\
         \    0x10004:  movz x2, #2\n\
         \  > 0x10008:  str x1, [x2]\n\
         \    0x1000c:  movz x0, #0\n\
         \    0x10010:  movz x3, #3")
        msg
  | Error vs -> Alcotest.failf "expected 1 violation, got %d" (List.length vs)

let () =
  Alcotest.run "telemetry"
    [
      ( "metrics",
        [
          Alcotest.test_case "off by default" `Quick test_metrics_off_by_default;
          Alcotest.test_case "golden counters" `Quick test_metrics_golden;
          Alcotest.test_case "json shape" `Quick test_metrics_json_shape;
        ] );
      ( "metrics-parity",
        [
          Alcotest.test_case "loop" `Quick test_parity_loop;
          Alcotest.test_case "armed warm" `Quick test_parity_armed_warm;
          Alcotest.test_case "mid-block fault" `Quick test_parity_crashy;
          Alcotest.test_case "self-modifying block" `Quick
            test_parity_self_modifying;
          Alcotest.test_case "budget kill" `Quick test_parity_budget_kill;
        ] );
      ( "trace",
        [
          Alcotest.test_case "deterministic" `Quick test_trace_deterministic;
          Alcotest.test_case "tracks" `Quick test_trace_tracks;
        ] );
      ( "profile",
        [
          Alcotest.test_case "samples land" `Quick test_profile_samples_land;
          Alcotest.test_case "deterministic" `Quick test_profile_deterministic;
          Alcotest.test_case "symbol resolve" `Quick test_sym_resolve;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "buckets" `Quick test_histogram;
          Alcotest.test_case "empty percentile" `Quick
            test_histogram_empty_percentile;
        ] );
      ( "window",
        [
          Alcotest.test_case "rollover" `Quick test_window_rollover;
          Alcotest.test_case "merge invariant" `Quick
            test_window_merge_invariant;
        ] );
      ("span", [ Alcotest.test_case "accumulate" `Quick test_span_accumulate ]);
      ( "elf-symbols",
        [
          Alcotest.test_case "roundtrip" `Quick test_elf_symbol_roundtrip;
          Alcotest.test_case "symbol-free unchanged" `Quick
            test_elf_no_symbols_unchanged;
        ] );
      ( "verifier-report",
        [
          Alcotest.test_case "format" `Quick test_verifier_report_format;
        ] );
    ]
