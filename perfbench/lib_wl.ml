(** Workloads [lib-warm] and [lib-dense]: the xzbox library served
    from a pool of warm instances by one closed-loop client.

    Each request is drawn from the serve layer's seeded stream (its
    xorshift and weighted export pick, so the mix is the library's own:
    checksum 4, compress 3, expand 2, dict_sum 1) and dispatched with
    {!Lfi_libbox.Pool.dispatch}: call, then snapshot reset.  The two
    workloads differ only in pool size. *)

open Lfi_libbox
module Rt = Lfi_runtime.Runtime
module Metrics = Lfi_telemetry.Metrics
module Samples = Stats.Samples

let now_ns = Tracer.now_ns

type shape = {
  pool_size : int;
  setups : int;  (** set-ups per run; the median is reported *)
}

(* lib-dense spawns 256 instances (about 3.5 s and 1.2 GB on the
   reference machine), so it repeats its set-up fewer times. *)
let warm = { pool_size = 4; setups = 9 }
let dense = { pool_size = 256; setups = 3 }

let xzbox = Lfi_workloads.Libs.xzbox

let exports =
  List.map (fun e -> e.Api.e_name) xzbox.Api.l_exports
  @ Option.to_list xzbox.Api.l_init

let create_library () =
  Library.create ~name:xzbox.Api.l_short ~exports xzbox.Api.l_program

let create_pool ~size lib =
  Pool.create ~arena:xzbox.Api.l_arena ?init:xzbox.Api.l_init ~size lib

let request_stream seed =
  let rng = Serve.make_rng seed in
  let weighted = List.filter (fun e -> e.Api.e_weight > 0) xzbox.Api.l_exports in
  fun () ->
    let e = Serve.pick_export rng weighted in
    (e.Api.e_name, e.Api.e_gen ~rng)

(** Requests whose simulated costs and counters are reported: the
    first [window] of a phase, which every run completes whatever its
    length, so those figures repeat exactly for a given seed. *)
let window = 2000

type phase = {
  lat : Samples.t;  (** host ns per [Pool.dispatch], untraced phases *)
  mutable reqs : int;
  mutable failed : int;
  mutable insns : int;  (** simulated, inside the sandbox *)
  mutable window_insns : int;  (** the same, first [window] *)
  mutable wall : int;  (** ns, whole phase less calibration *)
  mutable slowdown : float;  (** see {!Calib} *)
  sim_total : Samples.t;  (** simulated cycles per call, first [window] *)
  sim_gate : Samples.t;  (** simulated transition cycles, first [window] *)
}

let new_phase () =
  { lat = Samples.create (); reqs = 0; failed = 0; insns = 0;
    window_insns = 0; wall = 0; slowdown = 1.0;
    sim_total = Samples.create (); sim_gate = Samples.create () }

(* Rates and latencies at the reference machine speed (see {!Calib}). *)
let per_s ph count = float_of_int count /. (float_of_int ph.wall /. 1e9) *. ph.slowdown

(* Account one finished request; the output check runs here, outside
   the request timer. *)
let settle ph st name args (r : (Api.reply, Api.error) result) =
  let fail msg =
    ph.failed <- ph.failed + 1;
    if ph.failed <= 5 then prerr_endline ("lib: wrong output: " ^ msg)
  in
  (match r with
  | Error e -> fail (name ^ ": " ^ Api.error_to_string e)
  | Ok reply -> (
      ph.insns <- ph.insns + reply.Api.stats.Api.call_insns;
      if ph.reqs < window then begin
        ph.window_insns <- ph.window_insns + reply.Api.stats.Api.call_insns;
        Samples.add ph.sim_total reply.Api.stats.Api.total_cycles;
        Samples.add ph.sim_gate reply.Api.stats.Api.gate_cycles
      end;
      match Checks.xzbox_reply st name args reply with
      | Ok () -> ()
      | Error msg -> fail msg));
  ph.reqs <- ph.reqs + 1

let finish ph cal t0 =
  ph.wall <- now_ns () - t0 - cal.Calib.kernel_ns;
  ph.slowdown <- Calib.slowdown cal

(** Serve requests through {!Pool.dispatch} until [seconds] have passed
    and at least [window] requests are done. *)
let serve pool next st ~seconds =
  let ph = new_phase () and cal = Calib.create () in
  let t0 = now_ns () in
  let deadline = t0 + int_of_float (seconds *. 1e9) in
  while ph.reqs < window || now_ns () < deadline do
    let name, args = next () in
    let a = now_ns () in
    let _, r = Pool.dispatch pool name args in
    Samples.add ph.lat (float_of_int (now_ns () - a));
    settle ph st name args r;
    Calib.pace cal
  done;
  finish ph cal t0;
  ph

let sim_metrics r ph =
  Report.set r "sim_call_p99_cycles"
    (Stats.percentile ~permille:990 (Samples.to_array ph.sim_total))
    ~note:(Printf.sprintf "exact, first %d requests" window);
  Report.set r "sim_gate_mean_cycles"
    (Stats.mean (Samples.to_array ph.sim_gate))
    ~note:(Printf.sprintf "first %d requests" window)

let latency r name ~permille ph =
  let lat = Samples.to_array ph.lat in
  Report.set r name (Stats.percentile ~permille lat /. 1e3 /. ph.slowdown)
    ~note:(Printf.sprintf "n=%d, slowdown %.3f" (Array.length lat) ph.slowdown)

(** Untraced run: the end-to-end metrics.  The time splits evenly
    between plain serving and serving with the emulator counters on. *)
let run_untraced (r : Report.t) shape ~seed ~seconds =
  let times = Array.make shape.setups 0.0 and pool = ref None in
  let cal = Calib.create () in
  for k = 0 to shape.setups - 1 do
    pool := None;
    Gc.full_major ();
    let t0 = now_ns () in
    pool := Some (create_pool ~size:shape.pool_size (create_library ()));
    times.(k) <- float_of_int (now_ns () - t0) /. 1e9;
    Calib.pace cal
  done;
  let pool = Option.get !pool in
  let next = request_stream seed and st = Checks.lib_state () in
  let plain = serve pool next st ~seconds:(seconds /. 2.0) in
  ignore (Rt.enable_metrics pool.Pool.rt);
  let with_metrics = serve pool next st ~seconds:(seconds /. 2.0) in
  Report.set r "setup_s" (Stats.median times /. Calib.slowdown cal)
    ~note:
      (Printf.sprintf "median of %d set-ups, slowdown %.3f" shape.setups
         (Calib.slowdown cal));
  Report.set r "insns_per_s" (per_s plain plain.insns)
    ~note:(Printf.sprintf "%d requests, slowdown %.3f" plain.reqs plain.slowdown);
  Report.set r "insns_per_s_metrics" (per_s with_metrics with_metrics.insns)
    ~note:
      (Printf.sprintf "%d requests, emulator counters on, slowdown %.3f"
         with_metrics.reqs with_metrics.slowdown);
  Report.set r "req_per_s" (per_s plain plain.reqs)
    ~note:(Printf.sprintf "slowdown %.3f" plain.slowdown);
  latency r "req_p50_us" ~permille:500 plain;
  latency r "req_p99_us" ~permille:990 plain;
  sim_metrics r plain;
  (plain.reqs + with_metrics.reqs, plain.failed + with_metrics.failed)

(** Traced run: the per-layer metrics.  Set-up and request steps run
    one call at a time so each gets its own span: [Pool.create] of one
    instance and [Pool.respawn] for the rest (both are one
    [Instance.create]), and [Pool.next_instance], [Instance.call],
    [Instance.reset] for what [Pool.dispatch] does.  Half the time is
    traced; the other half serves untraced through [Pool.dispatch] for
    the tracing overhead. *)
let run_traced (r : Report.t) shape ~seed ~seconds ~spans_out =
  let tr = Tracer.create () in
  let lib = Tracer.with_span tr ~id:0 "libbox.library.create" create_library in
  let spawn_alloc = ref 0.0 in
  let spawn f =
    let v, words = Tracer.with_span_alloc tr ~id:0 "libbox.spawn" f in
    spawn_alloc := !spawn_alloc +. words;
    v
  in
  let pool = spawn (fun () -> create_pool ~size:1 lib) in
  for _ = 2 to shape.pool_size do
    ignore (spawn (fun () -> Pool.respawn pool))
  done;
  let next = request_stream seed and st = Checks.lib_state () in
  let ph = new_phase () in
  let call_alloc = ref 0.0 and reset_alloc = ref 0.0 in
  let restored = ref 0 and baseline = ref 0 in
  let snap0 = Rt.metrics_snapshot pool.Pool.rt in
  let minor0 = Gc.minor_words () and major0 = (Gc.quick_stat ()).Gc.major_collections in
  let at_window = ref None and cal = Calib.create () in
  let t0 = now_ns () in
  let deadline = t0 + int_of_float (seconds /. 2.0 *. 1e9) in
  while ph.reqs < window || now_ns () < deadline do
    let id = ph.reqs + 1 and counted = ph.reqs < window in
    Tracer.with_span tr ~id "bench.request" (fun () ->
        let name, args = Tracer.with_span tr ~id "bench.gen" next in
        match Tracer.with_span tr ~id "libbox.pool.pick" (fun () -> Pool.next_instance pool) with
        | None -> settle ph st name args (Error Api.No_instances)
        | Some inst ->
            let res, words =
              Tracer.with_span_alloc tr ~id "libbox.call" (fun () ->
                  Instance.call inst name args)
            in
            if counted then call_alloc := !call_alloc +. words;
            if inst.Instance.alive then begin
              let before = inst.Instance.pages_restored in
              let (), words =
                Tracer.with_span_alloc tr ~id "libbox.reset" (fun () ->
                    Instance.reset inst)
              in
              if counted then begin
                reset_alloc := !reset_alloc +. words;
                restored := !restored + inst.Instance.pages_restored - before;
                baseline := !baseline + Hashtbl.length inst.Instance.pristine
              end
            end;
            Tracer.with_span tr ~id "bench.check" (fun () ->
                settle ph st name args res));
    if ph.reqs = window then
      at_window :=
        Some
          ( Rt.metrics_snapshot pool.Pool.rt,
            Gc.minor_words () -. minor0,
            (Gc.quick_stat ()).Gc.major_collections - major0 );
    Calib.pace cal
  done;
  finish ph cal t0;
  Tracer.finish tr;
  let untraced = serve pool next st ~seconds:(seconds /. 2.0) in
  let acct = Tracer.account tr in
  let snap1, minor_words, major_gcs = Option.get !at_window in
  let w = float_of_int window in
  let call_ns = Tracer.durations tr "libbox.call" in
  let us permille xs = Stats.percentile ~permille xs /. 1e3 in
  let n_note xs = Printf.sprintf "n=%d" (Array.length xs) in
  let counted = Printf.sprintf "mean of first %d requests" window
  and first = Printf.sprintf "first %d requests" window in
  Report.set r "libbox.call.us_p50" (us 500 call_ns) ~note:(n_note call_ns);
  Report.set r "libbox.call.us_p99" (us 990 call_ns) ~note:(n_note call_ns);
  Report.set r "libbox.call.ns_per_insn"
    (Array.fold_left ( +. ) 0.0 call_ns /. float_of_int ph.insns);
  Report.set r "libbox.call.insns" (float_of_int ph.window_insns /. w) ~note:counted;
  Report.set r "emulator.insns" (float_of_int ph.window_insns) ~note:first;
  Report.set r "libbox.call.alloc_words" (!call_alloc /. w) ~note:counted;
  let reset_ns = Tracer.durations tr "libbox.reset" in
  Report.set r "libbox.reset.us_p50" (us 500 reset_ns) ~note:(n_note reset_ns);
  Report.set r "libbox.reset.pages_restored" (float_of_int !restored /. w) ~note:counted;
  Report.set r "libbox.reset.dirty_ratio"
    (float_of_int !restored /. float_of_int !baseline)
    ~note:"restored / baseline pages";
  Report.set r "libbox.reset.alloc_words" (!reset_alloc /. w) ~note:counted;
  let spawn_ns = Tracer.durations tr "libbox.spawn" in
  Report.set r "libbox.spawn.ms" (Stats.mean spawn_ns /. 1e6) ~note:(n_note spawn_ns);
  Report.set r "libbox.spawn.alloc_words"
    (!spawn_alloc /. float_of_int shape.pool_size)
    ~note:"mean per instance";
  Report.set r "libbox.library.create.ms"
    (Stats.mean (Tracer.durations tr "libbox.library.create") /. 1e6);
  Report.set r "libbox.pool.pick.us"
    (Stats.mean (Tracer.durations tr "libbox.pool.pick") /. 1e3)
    ~note:"mean per request";
  let execs = snap1.Metrics.blk_execs - snap0.Metrics.blk_execs
  and builds = snap1.Metrics.blk_builds - snap0.Metrics.blk_builds in
  Report.set r "emulator.block_hit_rate"
    (float_of_int (execs - builds) /. float_of_int execs) ~note:first;
  Report.set r "emulator.deopts"
    (float_of_int (snap1.Metrics.blk_deopts - snap0.Metrics.blk_deopts))
    ~note:first;
  Report.set r "gc.minor_words_per_req" (minor_words /. w) ~note:counted;
  Report.set r "gc.major_collections" (float_of_int major_gcs) ~note:first;
  latency r "req_p99_us" ~permille:990 untraced;
  sim_metrics r ph;
  Report.set r "bench.trace_overhead_pct"
    ((per_s untraced untraced.reqs /. per_s ph ph.reqs -. 1.0) *. 100.0)
    ~note:"on req_per_s";
  Report.set r "bench.machine_slowdown" ph.slowdown ~note:"traced phase";
  Report.account r acct;
  Tracer.write_chrome tr spans_out;
  (ph.reqs + untraced.reqs, ph.failed + untraced.failed)
