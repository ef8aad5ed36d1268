(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (Section 6), then measures the wall-clock speed
   of the real-time components (rewriter, verifier, assembler, Wasm
   validator, emulator) with Bechamel.

   Run with: dune exec bench/main.exe
   (or `dune exec bench/main.exe -- --quick` to skip the Bechamel
   wall-clock section). *)

let section title =
  Printf.printf "\n%s\n%s\n\n%!" title (String.make (String.length title) '=')

(* Library-call transition costs vs process-isolation baselines: the
   same seeded stream `make serve-bench` commits, replayed under both
   uarch models.  (The --quick JSON/compare paths don't run this — the
   committed BENCH_serve.json diff in CI covers the serve path.) *)
let serve_experiment () =
  Printf.printf
    "  %-5s %10s %10s %10s %12s %12s %10s\n"
    "uarch" "gate mean" "gate p50" "gate p99" "linux pipe" "gvisor pipe"
    "req/s";
  List.iter
    (fun uarch ->
      let r =
        Lfi_libbox.Serve.run ~uarch ~spec:Lfi_workloads.Libs.xzbox ~pool:4
          ~requests:1000 ~seed:1 ()
      in
      let open Lfi_emulator.Cost_model in
      let fmt v = if Float.is_nan v then "-" else Printf.sprintf "%.0f" v in
      Printf.printf "  %-5s %10.1f %10.0f %10.0f %12s %12s %10.0f\n%!"
        uarch.name r.Lfi_libbox.Serve.gate_mean r.Lfi_libbox.Serve.gate_p50
        r.Lfi_libbox.Serve.gate_p99
        (fmt uarch.linux_pipe_roundtrip)
        (fmt uarch.gvisor_pipe_roundtrip)
        r.Lfi_libbox.Serve.requests_per_sec)
    [ Lfi_emulator.Cost_model.m1; Lfi_emulator.Cost_model.t2a ];
  Printf.printf
    "\n  A sandboxed library call crosses the boundary for the cost of a\n\
    \  runtime-call gate (plus marshalling), orders of magnitude below a\n\
    \  pipe round-trip between processes.\n"

let run_experiments () =
  section "Experiment E1 - Figure 3 (LFI optimization levels)";
  Lfi_experiments.Fig3.run_all ();
  section "Experiment E2 - Figure 4 + Table 4 (LFI vs WebAssembly)";
  Lfi_experiments.Fig4.run_all ();
  section "Experiment E3 - Code size (Section 6.3)";
  Lfi_experiments.Codesize.run_all ();
  section "Experiment E4 - Figure 5 (LFI vs virtualization)";
  Lfi_experiments.Fig5.run_all ();
  section "Experiment E5 - Table 5 (context switch microbenchmarks)";
  Lfi_experiments.Table5.run_all ();
  section "Experiment E6 - Verifier throughput (Section 5.2)";
  Lfi_experiments.Verifier_speed.run_all ();
  section "Experiment E7 - Ablations (Sections 4.2-4.3)";
  Lfi_experiments.Ablation.run_all ();
  section "Experiment E8 - Spectre hardening cost (Section 7.1)";
  Lfi_experiments.Spectre.run_all ();
  section "CoreMark (artifact appendix A.6.3)";
  Lfi_experiments.Coremark_exp.run_all ();
  section "Experiment E9 - Library serving (Section 5.3 transition costs)";
  serve_experiment ()

(* ------------------------------------------------------------------ *)
(* Bechamel wall-clock benchmarks of the toolchain itself              *)
(* ------------------------------------------------------------------ *)

let bechamel_benchmarks () =
  let open Bechamel in
  let open Toolkit in
  (* fixtures: the mcf proxy at each pipeline stage *)
  let w = Option.get (Lfi_workloads.Registry.find "mcf") in
  let prog = w.Lfi_workloads.Common.program in
  let native_src = Lfi_minic.Compile.compile prog in
  let native_text = Lfi_arm64.Source.to_string native_src in
  let rewritten, _ = Lfi_core.Rewriter.rewrite native_src in
  let image = Lfi_arm64.Assemble.assemble rewritten in
  let code =
    match Lfi_elf.Elf.text_segment (Lfi_elf.Elf.of_image image) with
    | Some seg -> seg.Lfi_elf.Elf.data
    | None -> assert false
  in
  let wasm_blob = Lfi_wasm.Ir.serialize (Lfi_wasm.From_minic.lower prog) in
  let small = Option.get (Lfi_workloads.Registry.find "deepsjeng") in

  let tests =
    [
      Test.make ~name:"parse-asm"
        (Staged.stage (fun () ->
             ignore (Lfi_arm64.Parser.parse_string_exn native_text)));
      Test.make ~name:"rewrite-O2"
        (Staged.stage (fun () -> ignore (Lfi_core.Rewriter.rewrite native_src)));
      Test.make ~name:"assemble"
        (Staged.stage (fun () -> ignore (Lfi_arm64.Assemble.assemble rewritten)));
      Test.make ~name:"verify"
        (Staged.stage (fun () ->
             match Lfi_verifier.Verifier.verify ~code () with
             | Ok _ -> ()
             | Error _ -> failwith "verify failed"));
      Test.make ~name:"wasm-validate"
        (Staged.stage (fun () ->
             match Lfi_wasm.Validate.validate (Lfi_wasm.Ir.deserialize wasm_blob) with
             | Ok () -> ()
             | Error _ -> failwith "validate failed"));
      Test.make ~name:"emulate-deepsjeng"
        (Staged.stage (fun () ->
             ignore
               (Lfi_experiments.Run.run
                  (Lfi_experiments.Run.Lfi Lfi_core.Config.o2)
                  small.Lfi_workloads.Common.program)));
    ]
  in
  let benchmark test =
    let instances = Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) () in
    Benchmark.all cfg instances test
  in
  let analyze results =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
    in
    Analyze.all ols Instance.monotonic_clock results
  in
  section "Toolchain wall-clock (Bechamel, ns/run)";
  List.iter
    (fun test ->
      let results = analyze (benchmark test) in
      Hashtbl.iter
        (fun name ols ->
          match Bechamel.Analyze.OLS.estimates ols with
          | Some [ est ] -> Printf.printf "  %-20s %12.0f ns/run\n%!" name est
          | _ -> Printf.printf "  %-20s (no estimate)\n%!" name)
        results)
    tests

(* ------------------------------------------------------------------ *)
(* JSON perf harness (--json FILE)                                     *)
(*                                                                     *)
(* Measures the host-side throughput of the components every           *)
(* experiment is bottlenecked on — emulated instructions per second    *)
(* on registry workloads under both uarch models, plus rewriter and    *)
(* verifier wall-clock — and writes the numbers to a JSON file so      *)
(* successive PRs have a perf trajectory to compare against.           *)
(* ------------------------------------------------------------------ *)

type emu_sample = {
  workload : string;
  uarch : string;
  system : string;
  insns : int;
  sim_cycles : float;
  wall_s : float;
  insns_per_sec : float;
  (* from one extra metrics-enabled run (schema v2 telemetry section) *)
  decode_hit_rate : float;
  tc_hit_rate : float;
  tlb_hit_rate : float;
  guard_fraction : float;
  insns_per_sec_metrics : float;
  guard_clamps : int;
      (* the flight recorder's guard-clamp audit: exactly 0 for every
         well-behaved workload *)
  (* superblock engine, sampled from the timed (metrics-off) run where
     block dispatch is armed (schema v4 telemetry section) *)
  block_cache_hit_rate : float;
  avg_block_len : float;
  deopt_count : int;
}

(* One paired native-vs-rewritten overhead sample (schema v5).  Cycle
   counts are simulated and deterministic, so a single run per level
   suffices and the numbers are bit-stable across machines. *)
type ov_sample = {
  ov_workload : string;
  ov_uarch : string;
  ov_opt : string;
  ov_native : float;  (** simulated cycles of the unsandboxed build *)
  ov_cycles : float;  (** simulated cycles at this rewriter level *)
  ov_pct : float;  (** percent over native *)
  ov_categories : (string * float) list;
      (** per-category tax cycles (inserted sites only), attributed by
          the per-site profiler; only the O2 rows carry it *)
}

let opt_levels =
  [ ("O0", Lfi_core.Config.o0); ("O1", Lfi_core.Config.o1);
    ("O2", Lfi_core.Config.o2) ]

let overhead_samples workloads : ov_sample list =
  List.concat_map
    (fun short ->
      let w = Option.get (Lfi_workloads.Registry.find short) in
      let prog = w.Lfi_workloads.Common.program in
      List.concat_map
        (fun uarch ->
          let native_elf = Lfi_experiments.Run.build Lfi_experiments.Run.Native prog in
          let native =
            (Lfi_experiments.Run.execute ~uarch Lfi_experiments.Run.Native
               native_elf)
              .Lfi_experiments.Run.cycles
          in
          List.map
            (fun (opt, config) ->
              let sys = Lfi_experiments.Run.Lfi config in
              let elf = Lfi_experiments.Run.build sys prog in
              (* only the O2 row pays for attribution: the per-site
                 accumulator deopts superblock dispatch, but cycle
                 counts are dispatch-invariant, so the O0/O1 rows can
                 run unobserved *)
              let attribute = opt = "O2" in
              let r, rt =
                Lfi_experiments.Run.execute_rt ~uarch ~overhead:attribute sys
                  elf
              in
              let categories =
                match Lfi_runtime.Runtime.overhead_acc rt with
                | None -> []
                | Some a ->
                    let open Lfi_telemetry.Overhead in
                    List.map
                      (fun cat ->
                        let tax = ref 0.0 in
                        Array.iteri
                          (fun i (s : site) ->
                            if s.category = cat && s.inserted then
                              tax := !tax +. a.cycles.(i))
                          a.sites;
                        (category_name cat, !tax))
                      all_categories
              in
              {
                ov_workload = short;
                ov_uarch = uarch.Lfi_emulator.Cost_model.name;
                ov_opt = opt;
                ov_native = native;
                ov_cycles = r.Lfi_experiments.Run.cycles;
                ov_pct =
                  (r.Lfi_experiments.Run.cycles -. native) /. native *. 100.0;
                ov_categories = categories;
              })
            opt_levels)
        [ Lfi_emulator.Cost_model.m1; Lfi_emulator.Cost_model.t2a ])
    workloads

let time_wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(** Best-of-[reps] wall clock for one run of [f] (first call warms the
    decode and translation caches' allocation paths).  Short workloads
    get extra reps until the cumulative measured time reaches a floor:
    a single ~15 ms run can land entirely inside a slow scheduling
    window on a shared box, and best-of only converges to the stable
    peak if at least one rep catches a quiet slice. *)
let best_of reps f =
  let min_total = 0.25 and max_reps = 32 in
  let best = ref infinity in
  let result = ref None in
  let total = ref 0.0 in
  let n = ref 0 in
  while !n < reps || (!total < min_total && !n < max_reps) do
    incr n;
    let r, dt = time_wall f in
    result := Some r;
    total := !total +. dt;
    if dt < !best then best := dt
  done;
  (Option.get !result, !best)

let emulator_samples ~reps workloads =
  List.concat_map
    (fun short ->
      let w = Option.get (Lfi_workloads.Registry.find short) in
      List.concat_map
        (fun uarch ->
          List.map
            (fun (sysname, sys) ->
              (* build outside the timed section: we are measuring the
                 emulator, not the compiler *)
              let elf = Lfi_experiments.Run.build sys w.Lfi_workloads.Common.program in
              (* the timed run keeps metrics off so block dispatch stays
                 armed; the runtime handle still exposes the machine's
                 unconditional superblock counters afterwards *)
              let (r, rt), wall =
                best_of reps (fun () ->
                    Lfi_experiments.Run.execute_rt ~uarch sys elf)
              in
              let bsnap = Lfi_runtime.Runtime.metrics_snapshot rt in
              (* one extra run with the telemetry counters enabled:
                 cache hit rates, plus the metrics-on throughput so the
                 overhead of counting is itself on record *)
              let (rm, rtm), wall_m =
                time_wall (fun () ->
                    Lfi_experiments.Run.execute_rt ~uarch ~metrics:true sys elf)
              in
              let snap = Lfi_runtime.Runtime.metrics_snapshot rtm in
              let e = snap.Lfi_telemetry.Metrics.emu in
              let open Lfi_telemetry.Metrics in
              {
                workload = short;
                uarch = uarch.Lfi_emulator.Cost_model.name;
                system = sysname;
                insns = r.Lfi_experiments.Run.insns;
                sim_cycles = r.Lfi_experiments.Run.cycles;
                wall_s = wall;
                insns_per_sec = float_of_int r.Lfi_experiments.Run.insns /. wall;
                decode_hit_rate =
                  hit_rate ~hits:e.decode_hits ~misses:e.decode_misses;
                tc_hit_rate = hit_rate ~hits:snap.tc_hits ~misses:snap.tc_misses;
                tlb_hit_rate =
                  hit_rate ~hits:snap.tlb_hits ~misses:snap.tlb_misses;
                guard_fraction =
                  float_of_int e.guards /. float_of_int (max 1 (insn_total e));
                insns_per_sec_metrics =
                  float_of_int rm.Lfi_experiments.Run.insns /. wall_m;
                guard_clamps = Lfi_runtime.Runtime.total_clamps rtm;
                block_cache_hit_rate = block_hit_rate bsnap;
                avg_block_len = avg_block_len bsnap;
                deopt_count = bsnap.blk_deopts;
              })
            [
              ("native", Lfi_experiments.Run.Native);
              ("lfi-o2", Lfi_experiments.Run.Lfi Lfi_core.Config.o2);
            ])
        [ Lfi_emulator.Cost_model.m1; Lfi_emulator.Cost_model.t2a ])
    workloads

let json_perf ~quick ~filter file =
  let reps = if quick then 2 else 4 in
  let workloads =
    match filter with
    | [] -> if quick then [ "mcf"; "xz" ] else [ "mcf"; "xz"; "deepsjeng" ]
    | names -> names
  in
  Printf.printf "measuring emulator throughput on %s (%d reps)...\n%!"
    (String.concat ", " workloads) reps;
  let emu = emulator_samples ~reps workloads in
  List.iter
    (fun s ->
      Printf.printf "  %-10s %-4s %-7s %9d insns  %8.3f ms  %10.0f insns/s\n%!"
        s.workload s.uarch s.system s.insns (s.wall_s *. 1000.0)
        s.insns_per_sec)
    emu;
  (* rewriter + verifier wall clock on the mcf proxy *)
  let w = Option.get (Lfi_workloads.Registry.find "mcf") in
  let native_src = Lfi_minic.Compile.compile w.Lfi_workloads.Common.program in
  let (rewritten, rstats), rewrite_s =
    best_of (reps * 2) (fun () -> Lfi_core.Rewriter.rewrite native_src)
  in
  let image = Lfi_arm64.Assemble.assemble rewritten in
  let code =
    match Lfi_elf.Elf.text_segment (Lfi_elf.Elf.of_image image) with
    | Some seg -> seg.Lfi_elf.Elf.data
    | None -> assert false
  in
  let verify_res, verify_s =
    best_of (reps * 2) (fun () -> Lfi_verifier.Verifier.verify ~code ())
  in
  (match verify_res with
  | Ok _ -> ()
  | Error _ -> failwith "verifier rejected the mcf proxy");
  Printf.printf "measuring SFI overhead vs native on %s...\n%!"
    (String.concat ", " workloads);
  let ov = overhead_samples workloads in
  List.iter
    (fun s ->
      Printf.printf "  %-10s %-4s %-3s %12.0f cycles  %+6.2f%% over native\n%!"
        s.ov_workload s.ov_uarch s.ov_opt s.ov_cycles s.ov_pct)
    ov;
  let module J = Lfi_telemetry.Json in
  let f6 = J.float ~digits:6 and f0 = J.float ~digits:0 and f1 = J.float in
  let emu_row s =
    J.Object
      [ ("workload", J.String s.workload); ("uarch", J.String s.uarch);
        ("system", J.String s.system); ("insns", J.Int s.insns);
        ("sim_cycles", f1 s.sim_cycles); ("wall_s", f6 s.wall_s);
        ("insns_per_sec", f0 s.insns_per_sec);
        ( "telemetry",
          J.Nl
            (J.Object
               [ ("decode_cache_hit_rate", f6 s.decode_hit_rate);
                 ("translation_cache_hit_rate", f6 s.tc_hit_rate);
                 ("tlb_hit_rate", f6 s.tlb_hit_rate);
                 ("guard_fraction", f6 s.guard_fraction);
                 ("insns_per_sec_metrics", f0 s.insns_per_sec_metrics);
                 ("guard_clamps", J.Int s.guard_clamps);
                 ("block_cache_hit_rate", f6 s.block_cache_hit_rate);
                 ("avg_block_len", J.float ~digits:2 s.avg_block_len);
                 ("deopt_count", J.Int s.deopt_count) ]) ) ]
  in
  (* percent-over-native per (workload, uarch, opt): simulated cycles,
     so the section is deterministic and diffs cleanly in CI.  The O2
     rows carry the per-category tax breakdown from the per-site
     profiler on a line of their own, so each row's key fields and
     overhead_pct stay on one line. *)
  let ov_row s =
    J.Object
      ([ ("workload", J.String s.ov_workload); ("uarch", J.String s.ov_uarch);
         ("opt", J.String s.ov_opt); ("native_cycles", f1 s.ov_native);
         ("cycles", f1 s.ov_cycles);
         ("overhead_pct", J.float ~digits:2 s.ov_pct) ]
      @
      if s.ov_categories = [] then []
      else
        [ ( "categories",
            J.Nl (J.Object (List.map (fun (name, tax) -> (name, f1 tax)) s.ov_categories)) ) ])
  in
  let doc =
    J.block
      [ ("schema", J.String "lfi-bench/v5"); ("quick", J.Bool quick);
        ("emulator", J.rows (List.map emu_row emu));
        ("overhead", J.rows (List.map ov_row ov));
        ( "rewriter",
          J.Object
            [ ("input", J.String "mcf"); ("wall_s", f6 rewrite_s);
              ("guards", J.Int rstats.Lfi_core.Rewriter.guards);
              ("hoists", J.Int rstats.Lfi_core.Rewriter.hoists);
              ("sp_guards_elided", J.Int rstats.Lfi_core.Rewriter.sp_guards_elided);
              ("branches_relaxed", J.Int rstats.Lfi_core.Rewriter.branches_relaxed) ] );
        ( "verifier",
          J.Object
            [ ("input", J.String "mcf"); ("wall_s", f6 verify_s);
              ("text_bytes", J.Int (Bytes.length code));
              ( "mb_per_sec",
                f1 (float_of_int (Bytes.length code) /. verify_s /. 1e6) ) ] ) ]
  in
  let oc = open_out file in
  output_string oc (J.to_string doc ^ "\n");
  close_out oc;
  Printf.printf "wrote %s\n%!" file

(* ------------------------------------------------------------------ *)
(* Regression gate (--compare FILE)                                    *)
(*                                                                     *)
(* Re-measures the emulator samples and compares throughput against a  *)
(* baseline JSON written by --json (any schema version: only the       *)
(* per-sample insns_per_sec and overhead_pct are read).  Exits nonzero if any matching   *)
(* (workload, uarch, system) sample regressed by more than 10%, so CI  *)
(* can gate on it.                                                     *)
(* ------------------------------------------------------------------ *)

let regression_threshold = 0.10

let read_file file = In_channel.with_open_bin file In_channel.input_all

(* (workload, uarch, [key], [value]) of every row of a --json file's
   [section] array; a file without the section has no such rows *)
let section_rows (doc : Lfi_telemetry.Json.t) section key value =
  let open Lfi_telemetry.Json in
  match List.assoc_opt section (obj doc) with
  | None -> []
  | Some rows ->
      List.map
        (fun r ->
          ( str (field "workload" r), str (field "uarch" r), str (field key r),
            num (field value r) ))
        (arr rows)

(* a number at [path] of a parsed report, if there is one *)
let number_at (doc : Lfi_telemetry.Json.t) path =
  let open Lfi_telemetry.Json in
  let step j k = match j with Some (Object kvs) -> List.assoc_opt k kvs | _ -> None in
  match List.fold_left step (Some doc) path with
  | Some ((Int _ | Float _) as v) -> Some (num v)
  | _ -> None

let compare_baseline ~quick ~filter file =
  (* read [file] through [f]; a file that does not parse, or lacks a
     field [f] needs, stops the gate *)
  let read file f =
    try f (Lfi_telemetry.Json.parse (read_file file))
    with Lfi_telemetry.Json.Parse_error msg ->
      Printf.eprintf "%s: %s\n" file msg;
      exit 2
  in
  let baseline, ov_rows =
    read file (fun doc ->
        ( section_rows doc "emulator" "system" "insns_per_sec",
          section_rows doc "overhead" "opt" "overhead_pct" ))
  in
  let baseline =
    match filter with
    | [] -> baseline
    | names -> List.filter (fun (w, _, _, _) -> List.mem w names) baseline
  in
  if baseline = [] then begin
    Printf.eprintf "%s: no emulator samples found%s\n" file
      (if filter = [] then "" else " matching --filter");
    exit 2
  end;
  (* more reps than a measurement run: the gate compares best-of-N
     wall clocks, and best-of converges to the machine's stable peak —
     extra reps buy noise immunity, not flattery *)
  let reps = if quick then 4 else 8 in
  let workloads =
    List.sort_uniq compare (List.map (fun (w, _, _, _) -> w) baseline)
  in
  Printf.printf "comparing against %s on %s (%d reps)...\n%!" file
    (String.concat ", " workloads) reps;
  let current = emulator_samples ~reps workloads in
  (* one retry for samples that come in below threshold: best-of wall
     clock is monotone in reps, so a second measurement can only
     recover a slow scheduling window, never hide a real regression
     (a genuine slowdown fails both passes) *)
  let find_sample samples (w, u, sys) =
    List.find_opt (fun s -> s.workload = w && s.uarch = u && s.system = sys)
      samples
  in
  let flagged =
    List.filter
      (fun (w, u, sys, base_ips) ->
        match find_sample current (w, u, sys) with
        | Some s -> s.insns_per_sec /. base_ips < 1.0 -. regression_threshold
        | None -> false)
      baseline
  in
  let current =
    if flagged = [] then current
    else begin
      let rework =
        List.sort_uniq compare (List.map (fun (w, _, _, _) -> w) flagged)
      in
      Printf.printf "re-measuring %d flagged sample(s) on %s...\n%!"
        (List.length flagged)
        (String.concat ", " rework);
      let retry = emulator_samples ~reps rework in
      List.map
        (fun s ->
          match find_sample retry (s.workload, s.uarch, s.system) with
          | Some r when r.insns_per_sec > s.insns_per_sec -> r
          | _ -> s)
        current
    end
  in
  let regressions = ref 0 in
  let clamped = ref 0 in
  List.iter
    (fun (w, u, sys, base_ips) ->
      match
        List.find_opt
          (fun s -> s.workload = w && s.uarch = u && s.system = sys)
          current
      with
      | None -> Printf.printf "  %-10s %-4s %-7s (not measured)\n%!" w u sys
      | Some s ->
          let ratio = s.insns_per_sec /. base_ips in
          let bad = ratio < 1.0 -. regression_threshold in
          if bad then incr regressions;
          if s.guard_clamps <> 0 then incr clamped;
          Printf.printf
            "  %-10s %-4s %-7s %10.0f -> %10.0f insns/s  %+6.1f%%%s%s\n%!" w u
            sys base_ips s.insns_per_sec
            ((ratio -. 1.0) *. 100.0)
            (if bad then "  REGRESSION" else "")
            (if s.guard_clamps <> 0 then
               Printf.sprintf "  %d GUARD CLAMPS" s.guard_clamps
             else ""))
    baseline;
  if !clamped > 0 then
    Printf.printf "warning: nonzero guard-clamp audit on %d sample(s)\n" !clamped;
  (* overhead gate (schema v5): percent-over-native is a pure function
     of the rewriter and the cost model — no wall-clock noise, nothing
     to retry — so fail on a >10% relative regression outright *)
  let ov_baseline =
    match filter with
    | [] -> ov_rows
    | names -> List.filter (fun (w, _, _, _) -> List.mem w names) ov_rows
  in
  (if ov_baseline <> [] then
     let ov_workloads =
       List.sort_uniq compare (List.map (fun (w, _, _, _) -> w) ov_baseline)
     in
     Printf.printf "re-deriving SFI overhead on %s...\n%!"
       (String.concat ", " ov_workloads);
     let ov_current = overhead_samples ov_workloads in
     List.iter
       (fun (w, u, o, base_pct) ->
         match
           List.find_opt
             (fun s -> s.ov_workload = w && s.ov_uarch = u && s.ov_opt = o)
             ov_current
         with
         | None -> Printf.printf "  %-10s %-4s %-3s (not measured)\n%!" w u o
         | Some s ->
             let bad =
               s.ov_pct > base_pct *. (1.0 +. regression_threshold)
             in
             if bad then incr regressions;
             Printf.printf
               "  %-10s %-4s %-3s %8.2f%% -> %8.2f%% over native%s\n%!" w u o
               base_pct s.ov_pct
               (if bad then "  REGRESSION" else ""))
       ov_baseline);
  (* serve-path tail-latency gate: replay the committed serve stream
     and compare call p99 against BENCH_serve.json.  The latency is in
     simulated cycles — a pure function of the code, no wall-clock
     noise — so any drift past the threshold is a real serve-path
     regression and there is nothing to retry *)
  let serve_file = "BENCH_serve.json" in
  let serve_doc =
    if Sys.file_exists serve_file then Some (read serve_file Fun.id) else None
  in
  (match serve_doc with
   | None -> ()
   | Some doc -> (
     match number_at doc [ "call_p99" ] with
     | None ->
         Printf.printf "  serve      (no numeric call_p99 in %s; skipped)\n%!"
           serve_file
     | Some base ->
         let r =
           Lfi_libbox.Serve.run ~uarch:Lfi_emulator.Cost_model.m1
             ~spec:Lfi_workloads.Libs.xzbox ~pool:4 ~requests:1000 ~seed:1 ()
         in
         let now = r.Lfi_libbox.Serve.call_p99 in
         let bad = now > base *. (1.0 +. regression_threshold) in
         if bad then incr regressions;
         Printf.printf "  %-10s %-4s %-7s %10.0f -> %10.0f p99 cycles %s\n%!"
           "serve" "m1" "lfi-o2" base now
           (if bad then "  REGRESSION" else "")));
  (* closed-loop tail-latency gate (schema v3): re-run the suite's
     closed-loop point (256 slots, 4 tenants, 64 clients — the same
     parameters lfi_serve --suite committed) and fail if end-to-end
     p999 grew more than the threshold.  Also simulated cycles: a pure
     function of the scheduler, so drift means a real scheduling
     regression *)
  (match serve_doc with
   | None -> ()
   | Some doc -> (
     match number_at doc [ "closed_loop"; "p999" ] with
     | None ->
         Printf.printf
           "  serve-closed (no numeric closed_loop p999 in %s; skipped)\n%!"
           serve_file
     | Some base ->
         let module S = Lfi_libbox.Serve.Suite in
         let r =
           Lfi_libbox.Serve.run ~uarch:Lfi_emulator.Cost_model.m1
             ~arrival:(Lfi_sched.Arrival.Closed { concurrency = S.concurrency })
             ~tenants:S.tenants ~batch_max:S.batch_max
             ~spec:Lfi_workloads.Libs.xzbox ~pool:S.pool ~requests:S.requests
             ~seed:1 ()
         in
         let now = r.Lfi_libbox.Serve.latency_p999 in
         let bad = now > base *. (1.0 +. regression_threshold) in
         if bad then incr regressions;
         Printf.printf "  %-10s %-4s %-7s %10.0f -> %10.0f p999 cycles %s\n%!"
           "serve-closed" "m1" "lfi-o2" base now
           (if bad then "  REGRESSION" else "")));
  if !regressions > 0 then begin
    Printf.printf "%d sample(s) regressed more than %.0f%%\n" !regressions
      (regression_threshold *. 100.0);
    exit 1
  end
  else Printf.printf "no regression beyond %.0f%%\n" (regression_threshold *. 100.0)

let () =
  let quick = Array.exists (fun a -> a = "--quick") Sys.argv in
  let opt_arg name =
    let rec go i =
      if i >= Array.length Sys.argv then None
      else if Sys.argv.(i) = name && i + 1 < Array.length Sys.argv then
        Some Sys.argv.(i + 1)
      else go (i + 1)
    in
    go 1
  in
  let json_file = opt_arg "--json" in
  let compare_file = opt_arg "--compare" in
  (* --filter WORKLOAD is repeatable; it narrows the measured matrix
     (and, via the registry, the full-suite experiments) to the named
     workloads *)
  let filter =
    let acc = ref [] in
    Array.iteri
      (fun i a ->
        if a = "--filter" && i + 1 < Array.length Sys.argv then
          acc := Sys.argv.(i + 1) :: !acc)
      Sys.argv;
    List.rev !acc
  in
  List.iter
    (fun f ->
      if Option.is_none (Lfi_workloads.Registry.find f) then begin
        Printf.eprintf "unknown workload %S in --filter\n" f;
        exit 2
      end)
    filter;
  if filter <> [] then Lfi_workloads.Registry.filter := filter;
  match (json_file, compare_file) with
  | _, Some file -> compare_baseline ~quick ~filter file
  | Some file, None -> json_perf ~quick ~filter file
  | None, None
    when Array.exists (fun a -> a = "--json" || a = "--compare") Sys.argv ->
      prerr_endline
        "usage: main.exe [--quick] [--filter WORKLOAD]... [--json FILE | \
         --compare FILE]";
      exit 2
  | None, None ->
      run_experiments ();
      if not quick then bechamel_benchmarks ();
      print_newline ();
      print_endline
        "Done.  Paper-vs-measured commentary for every experiment is in \
         EXPERIMENTS.md."
