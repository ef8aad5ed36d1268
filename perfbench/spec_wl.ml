(** Workload [spec]: the 14 SPEC CPU2017 proxies of Figure 3.

    Set-up builds each proxy native and at LFI-O2 through the whole
    toolchain, ELF bytes included, and verifies the O2 text.  A request
    is one program run: a fresh runtime on the m1 cost model loads one
    build and runs it to completion.  The seed fixes the order of the
    runs in every pass. *)

module Rt = Lfi_runtime.Runtime
module Elf = Lfi_elf.Elf
module Cfg = Lfi_core.Config
module Metrics = Lfi_telemetry.Metrics
module Samples = Stats.Samples

let now_ns = Tracer.now_ns

exception Failed of string

type job = {
  short : string;
  sandboxed : bool;  (** the verified LFI-O2 build, else native *)
  elf : Elf.t;
  expected : int;  (** exit code under the reference interpreter *)
}

type build = {
  jobs : job list;  (** native and O2 build of each proxy *)
  guards : int;  (** guards the rewriter inserted, all proxies *)
  hoists : int;  (** O2 hoisting groups, all proxies *)
  verified_bytes : int;  (** O2 text the verifier checked *)
}

let verifier_config =
  { Lfi_verifier.Verifier.default_config with
    sandbox_loads = Cfg.o2.Cfg.sandbox_loads;
    allow_exclusives = Cfg.o2.Cfg.allow_exclusives }

let span tr ~id name f =
  match tr with None -> f () | Some t -> Tracer.with_span t ~id name f

(** Build every proxy, one span per toolchain call when traced (the
    span id is the proxy's index). *)
let build ?tr () : build =
  let guards = ref 0 and hoists = ref 0 and verified = ref 0 in
  let per_proxy id (w : Lfi_workloads.Common.t) =
    let span name f = span tr ~id name f in
    let src =
      span "minic.compile" (fun () ->
          Lfi_minic.Compile.compile w.Lfi_workloads.Common.program)
    in
    let package ?sites source =
      let img = span "arm64.assemble" (fun () -> Lfi_arm64.Assemble.assemble source) in
      let bytes = span "elf.write" (fun () -> Elf.write (Elf.of_image ?sites img)) in
      span "elf.read" (fun () -> Elf.read bytes)
    in
    let native = package src in
    let rewritten, sites =
      span "core.rewrite" (fun () ->
          let out, st = Lfi_core.Rewriter.rewrite ~config:Cfg.o2 src in
          guards := !guards + st.Lfi_core.Rewriter.guards;
          hoists := !hoists + st.Lfi_core.Rewriter.hoists;
          (out, Lfi_core.Rewriter.resolve_sites ~input:src ~output:out st))
    in
    let o2 = package ~sites rewritten in
    let short = w.Lfi_workloads.Common.short in
    (match Elf.text_segment o2 with
    | None -> raise (Failed (short ^ ": O2 build has no text segment"))
    | Some seg -> (
        match
          span "verifier.verify" (fun () ->
              Lfi_verifier.Verifier.verify ~config:verifier_config
                ~origin:seg.Elf.vaddr ~code:seg.Elf.data ())
        with
        | Ok _ -> verified := !verified + Bytes.length seg.Elf.data
        | Error _ -> raise (Failed (short ^ ": O2 build fails verification"))));
    let expected = Checks.spec_exit short in
    [ { short; sandboxed = false; elf = native; expected };
      { short; sandboxed = true; elf = o2; expected } ]
  in
  let jobs = List.concat (List.mapi per_proxy Lfi_workloads.Registry.all) in
  { jobs; guards = !guards; hoists = !hoists; verified_bytes = !verified }

type outcome = {
  error : string option;  (** wrong exit code or killed *)
  cycles : float;  (** simulated *)
  insns : int;  (** simulated *)
  snap : Metrics.snapshot;
  alloc : float;  (** words [Rt.run_one] allocated; traced runs only *)
  wall_ns : int;  (** load plus run *)
}

(** One request: load [job] into a fresh runtime and run it to exit. *)
let run_job ?tr ~id ~metrics (job : job) : outcome =
  let t0 = now_ns () in
  let rt, p =
    span tr ~id "runtime.load" (fun () ->
        let rt =
          Rt.create ~config:{ Rt.default_config with verifier_config } ()
        in
        if metrics then ignore (Rt.enable_metrics rt);
        let personality =
          if job.sandboxed then Lfi_runtime.Proc.Lfi
          else Lfi_runtime.Proc.Native_in_lfi_runtime
        in
        (rt, Rt.load rt ~personality job.elf))
  in
  let run () = Rt.run_one rt p in
  let (reason, _, cycles, insns), alloc =
    match tr with
    | None -> (run (), 0.0)
    | Some t ->
        Tracer.with_span_alloc t ~id
          (if metrics then "emulator.run_metrics" else "emulator.run")
          run
  in
  let wall_ns = now_ns () - t0 in
  let error =
    span tr ~id "bench.check" (fun () ->
        let name = (if job.sandboxed then "O2 " else "native ") ^ job.short in
        match reason with
        | Rt.Exited c when c = job.expected -> None
        | Rt.Exited c ->
            Some (Printf.sprintf "%s: exit %d, reference %d" name c job.expected)
        | Rt.Killed why -> Some (Printf.sprintf "%s: killed: %s" name why))
  in
  { error; cycles; insns; snap = Rt.metrics_snapshot rt; alloc; wall_ns }

let shuffle (rng : int -> int) (xs : 'a list) : 'a list =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

type phase = {
  walls : Samples.t;  (** per-request wall ns *)
  mutable runs : int;
  mutable failed : int;
  mutable insns : int;
  mutable wall : int;  (** ns, whole phase less calibration *)
  mutable slowdown : float;  (** see {!Calib} *)
  mutable first_pass : (job * outcome) list;
  mutable first_minor_words : float;  (** allocated during pass 1 *)
  mutable first_major_gcs : int;
}

let next_id = ref 1000

(** Run whole passes over [jobs], each in a fresh seeded order, and
    start another while less than [budget_s] has passed.  Whole passes
    keep the mix of programs the same in every run. *)
let phase ?tr ~rng ~metrics ~budget_s (jobs : job list) : phase =
  let ph =
    { walls = Samples.create (); runs = 0; failed = 0; insns = 0; wall = 0;
      slowdown = 1.0; first_pass = []; first_minor_words = 0.0;
      first_major_gcs = 0 }
  in
  let cal = Calib.create () in
  let t0 = now_ns () and budget = int_of_float (budget_s *. 1e9) in
  let rec pass n =
    if n = 0 || now_ns () - t0 < budget then begin
      let minor0 = Gc.minor_words () and major0 = (Gc.quick_stat ()).Gc.major_collections in
      let results =
        List.map
          (fun job ->
            incr next_id;
            let id = !next_id in
            let o =
              match tr with
              | None -> run_job ~id ~metrics job
              | Some t ->
                  Tracer.with_span t ~id "bench.request" (fun () ->
                      run_job ?tr ~id ~metrics job)
            in
            Samples.add ph.walls (float_of_int o.wall_ns);
            ph.runs <- ph.runs + 1;
            ph.insns <- ph.insns + o.insns;
            (match o.error with
            | None -> ()
            | Some msg ->
                ph.failed <- ph.failed + 1;
                prerr_endline ("spec: wrong output: " ^ msg));
            Calib.pace cal;
            (job, o))
          (shuffle rng jobs)
      in
      if n = 0 then begin
        ph.first_pass <- results;
        ph.first_minor_words <- Gc.minor_words () -. minor0;
        ph.first_major_gcs <- (Gc.quick_stat ()).Gc.major_collections - major0
      end;
      pass (n + 1)
    end
  in
  pass 0;
  ph.wall <- now_ns () - t0 - cal.Calib.kernel_ns;
  ph.slowdown <- Calib.slowdown cal;
  ph

(** Geometric mean over the proxies of O2 over native simulated
    cycles, as a percentage; [results] must hold both builds of each. *)
let sfi_overhead_pct (results : (job * outcome) list) =
  let cycles short sandboxed =
    List.find_map
      (fun (j, o) ->
        if j.short = short && j.sandboxed = sandboxed then Some o.cycles else None)
      results
    |> Option.get
  in
  List.map
    (fun (w : Lfi_workloads.Common.t) ->
      let s = w.Lfi_workloads.Common.short in
      cycles s true /. cycles s false)
    Lfi_workloads.Registry.all
  |> Stats.geomean_pct

(* Rates at the reference machine speed (see {!Calib}). *)
let per_s ph count =
  float_of_int count /. (float_of_int ph.wall /. 1e9) *. ph.slowdown
let set_count ?note r name v = Report.set ?note r name (float_of_int v)

(** The set-up is repeated [setups] times and reported as the median. *)
let setups = 9

(** Untraced run: the end-to-end metrics.  The time splits evenly
    between the plain runs and the metrics-on runs. *)
let run_untraced (r : Report.t) ~seed ~seconds =
  let times = Array.make setups 0.0 and b = ref None and cal = Calib.create () in
  for k = 0 to setups - 1 do
    b := None;
    Gc.full_major ();
    let t0 = now_ns () in
    b := Some (build ());
    times.(k) <- float_of_int (now_ns () - t0) /. 1e9;
    Calib.pace cal
  done;
  let b = Option.get !b in
  let rng = Lfi_libbox.Serve.make_rng seed in
  let plain = phase ~rng ~metrics:false ~budget_s:(seconds /. 2.0) b.jobs in
  let o2_jobs = List.filter (fun j -> j.sandboxed) b.jobs in
  let with_metrics = phase ~rng ~metrics:true ~budget_s:(seconds /. 2.0) o2_jobs in
  Report.set r "setup_s" (Stats.median times /. Calib.slowdown cal)
    ~note:
      (Printf.sprintf "median of %d set-ups, slowdown %.3f" setups
         (Calib.slowdown cal));
  Report.set r "insns_per_s" (per_s plain plain.insns)
    ~note:(Printf.sprintf "%d runs, slowdown %.3f" plain.runs plain.slowdown);
  Report.set r "insns_per_s_metrics" (per_s with_metrics with_metrics.insns)
    ~note:
      (Printf.sprintf "%d O2 runs, emulator counters on, slowdown %.3f"
         with_metrics.runs with_metrics.slowdown);
  Report.set r "req_per_s" (per_s plain plain.runs)
    ~note:"request = one program run";
  Report.set r "req_p50_us"
    (Stats.percentile ~permille:500 (Samples.to_array plain.walls)
    /. 1e3 /. plain.slowdown)
    ~note:(Printf.sprintf "n=%d" (Samples.length plain.walls));
  Report.set r "sfi_overhead_pct" (sfi_overhead_pct plain.first_pass)
    ~note:"geomean O2/native simulated cycles, m1";
  (plain.runs + with_metrics.runs, plain.failed + with_metrics.failed)

(** Traced run: the per-layer metrics.  A third of the time goes to
    each of the traced plain runs, the traced metrics-on runs and the
    untraced plain runs that give the tracing overhead. *)
let run_traced (r : Report.t) ~seed ~seconds ~spans_out =
  let tr = Tracer.create () in
  let b = build ~tr () in
  let rng = Lfi_libbox.Serve.make_rng seed in
  let budget_s = seconds /. 3.0 in
  let plain = phase ~tr ~rng ~metrics:false ~budget_s b.jobs in
  let o2_jobs = List.filter (fun j -> j.sandboxed) b.jobs in
  let with_metrics = phase ~tr ~rng ~metrics:true ~budget_s o2_jobs in
  Tracer.finish tr;
  let untraced = phase ~rng ~metrics:false ~budget_s b.jobs in
  let acct = Tracer.account tr in
  let mean_us name = Stats.mean (Tracer.durations tr name) /. 1e3 in
  let self_ns name =
    match List.assoc_opt name acct.Tracer.self_by_name with
    | Some (_, ns) -> float_of_int ns
    | None -> 0.0
  in
  List.iter
    (fun name -> Report.set r (name ^ ".us") (mean_us name)
        ~note:"mean per call")
    [ "minic.compile"; "core.rewrite"; "arm64.assemble"; "elf.write";
      "elf.read"; "verifier.verify"; "runtime.load" ];
  Report.set r "verifier.verify.mb_per_s"
    (float_of_int b.verified_bytes /. (self_ns "verifier.verify" /. 1e9) /. 1e6);
  set_count r "core.rewrite.guards" b.guards;
  set_count r "core.rewrite.hoists" b.hoists;
  Report.set r "emulator.run.ns_per_insn"
    (self_ns "emulator.run" /. float_of_int plain.insns);
  Report.set r "emulator.run_metrics.ns_per_insn"
    (self_ns "emulator.run_metrics" /. float_of_int with_metrics.insns);
  (* deterministic counters: the first traced plain pass, which every
     run completes whatever its length *)
  let first = List.map snd plain.first_pass in
  let sum f = List.fold_left (fun acc o -> acc + f o) 0 first in
  let insns = sum (fun o -> o.insns) in
  let execs = sum (fun o -> o.snap.Metrics.blk_execs)
  and builds = sum (fun o -> o.snap.Metrics.blk_builds) in
  let alloc = List.fold_left (fun acc o -> acc +. o.alloc) 0.0 first in
  set_count r "emulator.insns" insns ~note:"first pass";
  Report.set r "emulator.run.alloc_words_per_insn" (alloc /. float_of_int insns)
    ~note:"first pass";
  Report.set r "emulator.block_hit_rate"
    (float_of_int (execs - builds) /. float_of_int execs) ~note:"first pass";
  set_count r "emulator.deopts" (sum (fun o -> o.snap.Metrics.blk_deopts))
    ~note:"first pass";
  Report.set r "gc.minor_words_per_req"
    (plain.first_minor_words /. float_of_int (List.length first))
    ~note:"first pass";
  set_count r "gc.major_collections" plain.first_major_gcs ~note:"first pass";
  Report.set r "sfi_overhead_pct" (sfi_overhead_pct plain.first_pass);
  let traced_ips = per_s plain plain.insns
  and untraced_ips = per_s untraced untraced.insns in
  Report.set r "bench.trace_overhead_pct"
    ((untraced_ips /. traced_ips -. 1.0) *. 100.0)
    ~note:"on insns_per_s";
  Report.set r "bench.machine_slowdown" plain.slowdown
    ~note:"traced plain runs";
  Report.account r acct;
  Tracer.write_chrome tr spans_out;
  ( plain.runs + with_metrics.runs + untraced.runs,
    plain.failed + with_metrics.failed + untraced.failed )
