(** Multi-tenant request scheduler and the [lfi-serve/v3] report.

    [run] builds a library and a pool from a {!Api.lib_spec} and drives
    a seeded request stream through it under one of three arrival
    models ({!Lfi_sched.Arrival}): back-to-back [Replay] (the v2 shape,
    whose report fields are preserved byte for byte), open-loop seeded
    Poisson arrivals at an offered rate, and closed-loop fixed
    concurrency.  Everything in the report derives from the seed and
    the simulated machine — no wall clock, no hash-table iteration
    order — so the JSON is byte-identical across runs: the property
    `make serve-bench` commits to.

    v3 adds the scheduling layer between arrival and dispatch:

    - {b per-tenant queues} ({!Lfi_sched.Tenant}): each request is
      assigned a tenant (weighted pick from the stream's xorshift when
      there is more than one); admission refills the tenant's token
      bucket from the simulated clock and sheds deterministically on an
      empty bucket or a full queue — the reject path is counted, never
      silent;
    - {b weighted service}: tenants rotate through a {!Lfi_sched.Runq}
      (the same abstraction the runtime scheduler and {!Pool} run on)
      under deficit round-robin, so a heavy tenant gets its weight
      share and no more;
    - {b batching}: consecutive same-export requests of the chosen
      tenant are served as one batch on one instance, paying the
      dispatch-decision cost once;
    - {b shards + work stealing}: the pool's slots are partitioned into
      per-tenant home shards; a tenant whose shard has no live instance
      steals from the next shard around the ring (counted per request);
    - {b latency under load}: every request's end-to-end latency
      (arrival → completion, queue wait included) lands in full-run
      histograms — the p50/p99/p999 the paper's serving story is
      about — next to the v2 windows/SLO/span instrumentation, which
      now sees end-to-end latency too.

    Request latency is measured in simulated cycles; queue wait and
    the per-batch dispatch-decision cost (8 cycles, the runtime
    scheduler's bookkeeping charge) advance the clock only under the
    open- and closed-loop models, so replay throughput is untouched. *)

open Lfi_emulator
module H = Lfi_telemetry.Histogram
module Span = Lfi_telemetry.Span
module Window = Lfi_telemetry.Window
module Slo = Lfi_telemetry.Slo
module Trace = Lfi_telemetry.Trace
module Json = Lfi_telemetry.Json
module Runq = Lfi_sched.Runq
module Tenant = Lfi_sched.Tenant
module Arrival = Lfi_sched.Arrival

type tenant_stat = {
  ts_name : string;
  ts_weight : int;
  ts_quota_rps : float;  (** 0 = no quota *)
  ts_queue_bound : int;
  ts_admitted : int;
  ts_completed : int;
  ts_failed : int;
  ts_shed_queue : int;
  ts_shed_quota : int;
  ts_depth_max : int;
  ts_depth_avg : float;
  ts_steals : int;
  ts_quota_util : float;  (** NaN = no quota *)
  ts_p50 : float;
  ts_p99 : float;
  ts_p999 : float;
}

type report = {
  doc : Json.t;  (** the lfi-serve/v3 report *)
  json : string;  (** [doc] printed, with a trailing newline *)
  completed : int;
  failed : int;
  shed : int;  (** requests rejected at admission (quota or queue bound) *)
  retired : int;  (** instances lost *)
  gate_p50 : float;
  gate_p99 : float;
  gate_mean : float;
  call_p50 : float;
  call_p99 : float;
  call_p999 : float;
  latency_p50 : float;  (** end-to-end (queue wait included), cycles *)
  latency_p99 : float;
  latency_p999 : float;
  insns_per_request : float;
  requests_per_sec : float;
  achieved_rps : float;  (** served / simulated duration *)
  duration_cycles : float;
  steals : int;
  batches : int;
  tenants : tenant_stat list;
  alerts : Slo.alert list;  (** burn-rate alerts, in firing order *)
  snapshots : string list;  (** lfi-snap/v2 frames, in emission order *)
  summary : Json.t;  (** condensed one-object view of the run, for the suite *)
}

(** The serve layer's own trace process; the runtime's events stay on
    {!Lfi_runtime.Runtime.trace_pid} so the two views sit side by side
    in Perfetto. *)
let trace_pid = 2

(** Per-batch dispatch-decision charge under the open- and closed-loop
    models — the same price the runtime scheduler pays per context
    switch ({!Lfi_runtime.Runtime.lfi_sched_bookkeeping}). *)
let dispatch_decision_cycles = 8.0

(* xorshift64; the single source of randomness for the stream *)
let make_rng (seed : int) =
  let s = ref (Int64.of_int ((seed * 2654435761) lor 1)) in
  fun (bound : int) ->
    let x = !s in
    let x = Int64.logxor x (Int64.shift_left x 13) in
    let x = Int64.logxor x (Int64.shift_right_logical x 7) in
    let x = Int64.logxor x (Int64.shift_left x 17) in
    s := x;
    Int64.to_int (Int64.rem (Int64.logand x Int64.max_int) (Int64.of_int bound))

let pick_export (rng : int -> int) (exports : Api.export_spec list) :
    Api.export_spec =
  match exports with
  | [] -> invalid_arg "Serve.run: no weighted exports in the stream"
  | _ ->
      let total = List.fold_left (fun a e -> a + e.Api.e_weight) 0 exports in
      let n = rng total in
      let rec go acc = function
        | [ e ] -> e
        | e :: tl ->
            let acc = acc + e.Api.e_weight in
            if n < acc then e else go acc tl
        | [] -> assert false
      in
      go 0 exports

(* burn rates of an export's window range, for the snapshot view: the
   worse of the latency and error dimensions *)
let range_burn (ob : Slo.objective option) (r : Window.rstats) : float =
  match ob with
  | None -> 0.0
  | Some ob ->
      Float.max
        (Slo.burn ~bad:r.Window.r_over ~total:r.Window.r_ok
           ~budget:ob.Slo.latency_budget)
        (Slo.burn ~bad:r.Window.r_err
           ~total:(r.Window.r_ok + r.Window.r_err)
           ~budget:ob.Slo.error_budget)

(** One admitted request waiting in a tenant queue. *)
type pending = {
  pr_export : Api.export_spec;
  pr_args : Api.arg list;
  pr_arrival : float;  (** simulated-cycle arrival timestamp *)
  pr_tenant : int;
  pr_client : int;  (** closed-loop client id; -1 otherwise *)
}

let run ?(uarch = Cost_model.m1) ?(config = Lfi_core.Config.o2)
    ?(filter : string list = []) ?(window_cycles = 50_000.0)
    ?(window_depth = 128) ?(trace : Trace.t option) ?(snapshot_every = 0)
    ?(arrival = Arrival.Replay)
    ?(tenants : Tenant.spec list = [ Tenant.default_spec ])
    ?(batch_max = 8) ~(spec : Api.lib_spec) ~(pool : int) ~(requests : int)
    ~(seed : int) () : report =
  if batch_max < 1 then invalid_arg "Serve.run: batch_max < 1";
  if tenants = [] then invalid_arg "Serve.run: no tenants";
  List.iter
    (fun (t : Tenant.spec) ->
      if t.Tenant.t_weight < 1 then
        invalid_arg "Serve.run: tenant weight < 1")
    tenants;
  let lib =
    let exports =
      List.map (fun e -> e.Api.e_name) spec.Api.l_exports
      @ match spec.Api.l_init with None -> [] | Some n -> [ n ]
    in
    Library.create ~config ~name:spec.Api.l_short ~exports spec.Api.l_program
  in
  let rt =
    Lfi_runtime.Runtime.create
      ~config:
        { Lfi_runtime.Runtime.default_config with verify = false; uarch }
      ()
  in
  (match trace with
  | None -> ()
  | Some t ->
      Trace.process_name t ~pid:Lfi_runtime.Runtime.trace_pid
        ~name:"lfi-runtime";
      rt.Lfi_runtime.Runtime.trace <- Some t);
  let p =
    Pool.create ~runtime:rt ~arena:spec.Api.l_arena ?init:spec.Api.l_init
      ~size:pool lib
  in
  (match trace with
  | None -> ()
  | Some t ->
      Trace.process_name t ~pid:trace_pid ~name:"lfi-serve";
      Trace.thread_name t ~pid:trace_pid ~tid:0 ~name:"slo";
      Array.iter
        (fun inst ->
          let slot = inst.Instance.p.Lfi_runtime.Proc.slot in
          Trace.thread_name t ~pid:trace_pid ~tid:slot
            ~name:(Printf.sprintf "slot %d" slot))
        p.Pool.instances);
  (* the request stream: weighted exports, optionally narrowed to
     --filter names (spec order is preserved, so the stream stays a
     pure function of seed + filter) *)
  let stream_exports =
    List.filter
      (fun e ->
        e.Api.e_weight > 0
        && (filter = [] || List.mem e.Api.e_name filter))
      spec.Api.l_exports
  in
  if stream_exports = [] then
    invalid_arg "Serve.run: no weighted exports in the stream";
  let machine = rt.Lfi_runtime.Runtime.machine in
  let clock_hz = uarch.Cost_model.clock_ghz *. 1e9 in
  (* window 0 opens when serving starts, after pool warm-up *)
  let origin = Machine.cycles machine in
  let slo_of name =
    List.find_opt (fun s -> s.Api.s_export = name) spec.Api.l_slos
    |> Option.map (fun s -> s.Api.s_objective)
  in
  let export_state =
    List.map
      (fun e ->
        ( e.Api.e_name,
          Window.create ~depth:window_depth ~origin ~width:window_cycles (),
          slo_of e.Api.e_name ))
      stream_exports
  in
  let overall =
    Window.create ~depth:window_depth ~origin ~width:window_cycles ()
  in
  (* ---------------- tenants, shards, tenant run queue -------------- *)
  let tenant_specs = Array.of_list tenants in
  let ntenants = Array.length tenant_specs in
  let tns : pending Tenant.t array =
    Array.map (Tenant.create ~clock_hz) tenant_specs
  in
  (* home shards: slot i belongs to tenant (i mod ntenants); with one
     tenant the shard IS the pool in creation order, so replay keeps
     the v2 rotation exactly *)
  let shards = Array.init ntenants (fun _ -> Runq.create ()) in
  Array.iteri
    (fun i _ -> Runq.push shards.(i mod ntenants) i)
    p.Pool.instances;
  let tq = Runq.create ~capacity:ntenants () in
  Array.iteri (fun t _ -> Runq.push tq t) tns;
  (* full-run end-to-end latency (the v3 headline numbers); windows
     above keep the v2 rolling view *)
  let lat_overall = H.create () in
  let lat_tenant = Array.init ntenants (fun _ -> H.create ()) in
  let phase_tot = Array.make Span.nphases 0.0 in
  let alerts = ref [] and last_eval = ref (-1) in
  let cursors : (int, float) Hashtbl.t = Hashtbl.create 8 in
  let snapshots = ref [] in
  let rng = make_rng seed in
  let serve_cycles = ref 0.0 and serve_insns = ref 0 in
  let steals_total = ref 0 and batches = ref 0 and batched_reqs = ref 0 in
  let served_count = ref 0 in
  (* evaluate SLOs over every window that closed before [gcur] *)
  let eval_closed gcur =
    for s = !last_eval + 1 to gcur - 1 do
      List.iter
        (fun (name, w, slo) ->
          match slo with
          | None -> ()
          | Some ob ->
              let f = Window.range w ~lo:s ~hi:s in
              let sl = Window.range w ~lo:(s - 9) ~hi:s in
              List.iter
                (fun (kind, fast, slow) ->
                  alerts :=
                    { Slo.a_export = name; a_window = s; a_kind = kind;
                      a_fast = fast; a_slow = slow }
                    :: !alerts;
                  match trace with
                  | None -> ()
                  | Some t ->
                      Trace.instant t ~name:("slo:" ^ name) ~cat:"slo"
                        ~ts:(origin +. (float_of_int (s + 1) *. window_cycles))
                        ~pid:trace_pid ~tid:0
                        ~args:
                          [ ("kind", Json.String (Slo.kind_name kind));
                            ("window", Json.Int s);
                            ("fast", Json.Float (fast, 3));
                            ("slow", Json.Float (slow, 3)) ])
                (Slo.check ob
                   ~fast:(f.Window.r_over, f.Window.r_err, f.Window.r_ok)
                   ~slow:(sl.Window.r_over, sl.Window.r_err, sl.Window.r_ok)))
        export_state
    done;
    if gcur - 1 > !last_eval then last_eval := gcur - 1
  in
  let slot_rows () =
    Array.to_list
      (Array.map
         (fun inst ->
           {
             Snapshot.sl_slot = inst.Instance.p.Lfi_runtime.Proc.slot;
             sl_pid = inst.Instance.p.Lfi_runtime.Proc.pid;
             sl_alive = inst.Instance.alive;
             sl_calls = inst.Instance.calls;
             sl_resets = inst.Instance.resets;
             sl_insns = inst.Instance.call_insns;
             sl_restored = inst.Instance.pages_restored;
           })
         p.Pool.instances)
  in
  let export_rows () =
    List.map
      (fun (name, w, slo) ->
        let m = Window.merged w in
        let cur = Window.cur w in
        let r = Window.range w ~lo:0 ~hi:cur in
        let fast = range_burn slo (Window.range w ~lo:cur ~hi:cur) in
        let slow = range_burn slo (Window.range w ~lo:(cur - 9) ~hi:cur) in
        {
          Snapshot.x_name = name;
          x_req = Window.total_ok w + Window.total_err w;
          x_err = Window.total_err w;
          x_p50 = H.percentile m 0.50;
          x_p99 = H.percentile m 0.99;
          x_p999 = H.percentile m 0.999;
          x_mean = (if m.H.count = 0 then Float.nan else H.mean m);
          x_ipr =
            (if m.H.count = 0 then Float.nan
             else float_of_int r.Window.r_insns /. float_of_int m.H.count);
          x_burn_fast = fast;
          x_burn_slow = slow;
          x_alerting = fast >= 1.0 && slow >= 1.0;
        })
      export_state
  in
  let duration () = Machine.cycles machine -. origin in
  let tenant_rows () =
    Array.to_list
      (Array.mapi
         (fun t (tn : pending Tenant.t) ->
           {
             Snapshot.tn_name = tn.Tenant.spec.Tenant.t_name;
             tn_depth = Tenant.depth tn;
             tn_depth_max = tn.Tenant.depth_max;
             tn_admitted = tn.Tenant.admitted;
             tn_completed = tn.Tenant.completed;
             tn_failed = tn.Tenant.failed;
             tn_shed_queue = tn.Tenant.shed_queue;
             tn_shed_quota = tn.Tenant.shed_quota;
             tn_quota_util =
               Tenant.quota_utilization tn ~duration:(duration ());
             tn_steals = tn.Tenant.steals;
             tn_p99 = H.percentile lat_tenant.(t) 0.99;
           })
         tns)
  in
  let take_frame i =
    let frame =
      {
        Snapshot.workload = spec.Api.l_short;
        seq = i;
        now = Machine.cycles machine -. origin;
        completed = p.Pool.served;
        failed = p.Pool.failed;
        retired = Pool.retired p;
        window_cycles;
        windows = Window.spanned overall;
        exports = export_rows ();
        slots = slot_rows ();
        tenants = tenant_rows ();
        phases =
          List.map (fun ph -> (Span.name ph, phase_tot.(Span.index ph))) Span.all;
        alerts = List.rev !alerts;
      }
    in
    snapshots := Snapshot.to_json frame :: !snapshots
  in
  (* ---------------- request generation ----------------------------- *)
  let tenant_weight_total =
    Array.fold_left (fun a (s : Tenant.spec) -> a + s.Tenant.t_weight) 0
      tenant_specs
  in
  let pick_tenant () =
    if ntenants = 1 then 0
    else begin
      let n = rng tenant_weight_total in
      let rec go acc t =
        let acc = acc + tenant_specs.(t).Tenant.t_weight in
        if n < acc || t = ntenants - 1 then t else go acc (t + 1)
      in
      go 0 0
    end
  in
  (* tenant pick (when not pinned) draws before export pick, so the
     request stream stays a pure function of seed + tenant list *)
  let gen ?tenant ~(at : float) ~(client : int) () : pending =
    let t = match tenant with Some t -> t | None -> pick_tenant () in
    let e = pick_export rng stream_exports in
    let args = e.Api.e_gen ~rng in
    { pr_export = e; pr_args = args; pr_arrival = at; pr_tenant = t;
      pr_client = client }
  in
  (* ---------------- dispatch + accounting -------------------------- *)
  let replaying = arrival = Arrival.Replay in
  (* closed-loop clients re-issue on completion *)
  let issued = ref 0 in
  let on_complete : (pending -> unit) ref = ref (fun _ -> ()) in
  let record (req : pending) (inst : Instance.t option)
      (r : (Api.reply, Api.error) result) =
    let now = Machine.cycles machine in
    List.iter (fun (_, w, _) -> Window.advance w ~now) export_state;
    Window.advance overall ~now;
    let _, ew, slo =
      List.find (fun (n, _, _) -> n = req.pr_export.Api.e_name) export_state
    in
    let tn = tns.(req.pr_tenant) in
    (match r with
    | Ok reply ->
        let total = reply.Api.stats.Api.total_cycles in
        let insns = reply.Api.stats.Api.call_insns in
        serve_cycles := !serve_cycles +. total;
        serve_insns := !serve_insns + insns;
        (* end-to-end latency: queue wait + service; under replay the
           request arrived the instant it was served, so this is
           exactly the v2 number *)
        let latency = if replaying then total else now -. req.pr_arrival in
        let over =
          match slo with
          | Some ob -> latency > ob.Slo.latency_cycles
          | None -> false
        in
        Window.observe ew ~now ~latency ~insns ~over;
        Window.observe overall ~now ~latency ~insns ~over;
        H.observe lat_overall latency;
        H.observe lat_tenant.(req.pr_tenant) latency;
        tn.Tenant.completed <- tn.Tenant.completed + 1;
        (match inst with
        | None -> ()
        | Some inst ->
            Span.set inst.Instance.span Span.Queue (latency -. total);
            Span.accumulate inst.Instance.span phase_tot;
            (match trace with
            | None -> ()
            | Some t ->
                let sp = inst.Instance.span in
                let slot = inst.Instance.p.Lfi_runtime.Proc.slot in
                let cur0 =
                  Option.value ~default:origin (Hashtbl.find_opt cursors slot)
                in
                let start =
                  Float.max cur0
                    (sp.Span.t0 -. Span.get sp Span.Marshal_in
                   -. Span.get sp Span.Queue)
                in
                Hashtbl.replace cursors slot
                  (Span.emit sp t ~pid:trace_pid ~tid:slot ~ts:start)))
    | Error _ ->
        tn.Tenant.failed <- tn.Tenant.failed + 1;
        Window.fail ew ~now;
        Window.fail overall ~now);
    eval_closed (Window.cur overall);
    incr served_count;
    if
      snapshot_every > 0
      && !served_count mod snapshot_every = 0
      && !served_count < requests
    then take_frame !served_count;
    !on_complete req
  in
  (* pick an instance for tenant [t]: home shard first, then steal
     around the ring *)
  let keep i = p.Pool.instances.(i).Instance.alive in
  let always _ = true in
  let pick_instance t : (Instance.t * bool) option =
    let rec go k =
      if k >= ntenants then None
      else
        match Runq.select shards.((t + k) mod ntenants) ~keep ~runnable:always
        with
        | Some i -> Some (p.Pool.instances.(i), k > 0)
        | None -> go (k + 1)
    in
    go 0
  in
  let dispatch_one (req : pending) (inst : (Instance.t * bool) option) =
    match inst with
    | None -> record req None (Error Api.No_instances)
    | Some (inst, stolen) ->
        if stolen then begin
          let tn = tns.(req.pr_tenant) in
          tn.Tenant.steals <- tn.Tenant.steals + 1;
          incr steals_total
        end;
        record req (Some inst)
          (Pool.dispatch_on p inst req.pr_export.Api.e_name req.pr_args)
  in
  (* serve one DRR batch for tenant [t]: up to [min deficit batch_max]
     consecutive same-export requests on one instance, one dispatch
     decision for the whole batch *)
  let serve_batch t =
    let tn = tns.(t) in
    let w = tn.Tenant.spec.Tenant.t_weight in
    tn.Tenant.deficit <- min (tn.Tenant.deficit + w) (max batch_max w);
    let limit = min tn.Tenant.deficit batch_max in
    let ename =
      match Tenant.peek tn with
      | Some r -> r.pr_export.Api.e_name
      | None -> assert false
    in
    Machine.add_cycles machine dispatch_decision_cycles;
    let inst = ref (pick_instance t) in
    let served = ref 0 in
    let continue = ref true in
    while !continue && !served < limit do
      match Tenant.peek tn with
      | Some r when r.pr_export.Api.e_name = ename ->
          let req = Tenant.take tn in
          (match !inst with
          | Some (i, _) when i.Instance.alive -> ()
          | _ -> inst := pick_instance t (* re-pick: batch killed it *));
          dispatch_one req !inst;
          incr served
      | _ -> continue := false
    done;
    tn.Tenant.deficit <- tn.Tenant.deficit - !served;
    if Tenant.depth tn = 0 then tn.Tenant.deficit <- 0;
    incr batches;
    batched_reqs := !batched_reqs + !served
  in
  let next_tenant () =
    Runq.select tq ~keep:always ~runnable:(fun t -> Tenant.depth tns.(t) > 0)
  in
  (* ---------------- the three arrival models ----------------------- *)
  (match arrival with
  | Arrival.Replay ->
      (* v2 shape: each request arrives the instant the server is
         ready — no queueing, no decision charge, batch of one *)
      for _ = 1 to requests do
        let now = Machine.cycles machine in
        let req = gen ~at:now ~client:(-1) () in
        match Tenant.admit tns.(req.pr_tenant) ~now req with
        | Tenant.Admitted ->
            let req = Tenant.take tns.(req.pr_tenant) in
            dispatch_one req (pick_instance req.pr_tenant)
        | Tenant.Shed_queue | Tenant.Shed_quota -> ()
      done
  | Arrival.Open { rate_rps } ->
      if rate_rps <= 0.0 then invalid_arg "Serve.run: open-loop rate <= 0";
      let sample =
        Arrival.exp_stream ~seed ~mean_cycles:(clock_hz /. rate_rps)
      in
      let generated = ref 0 in
      let next_arrival = ref (origin +. sample ()) in
      let admit_due () =
        (* everything that arrived while the server was busy *)
        let now = Machine.cycles machine in
        while !generated < requests && !next_arrival <= now do
          let at = !next_arrival in
          let req = gen ~at ~client:(-1) () in
          incr generated;
          ignore (Tenant.admit tns.(req.pr_tenant) ~now:at req);
          next_arrival := at +. sample ()
        done
      in
      let rec loop () =
        admit_due ();
        match next_tenant () with
        | Some t ->
            serve_batch t;
            loop ()
        | None ->
            if !generated < requests then begin
              (* idle until the next arrival *)
              let now = Machine.cycles machine in
              if !next_arrival > now then
                Machine.add_cycles machine (!next_arrival -. now);
              loop ()
            end
      in
      loop ()
  | Arrival.Closed { concurrency } ->
      if concurrency < 1 then invalid_arg "Serve.run: concurrency < 1";
      (* [concurrency] clients, pinned round-robin to tenants; each
         re-issues the instant its previous request completes.  Closed
         loops self-limit, so admission control does not apply. *)
      let issue k at =
        let t = k mod ntenants in
        let req = gen ~tenant:t ~at ~client:k () in
        Tenant.enqueue tns.(t) req;
        incr issued
      in
      on_complete :=
        (fun req ->
          if req.pr_client >= 0 && !issued < requests then
            issue req.pr_client (Machine.cycles machine));
      for k = 0 to min concurrency requests - 1 do
        issue k origin
      done;
      let rec loop () =
        match next_tenant () with
        | Some t ->
            serve_batch t;
            loop ()
        | None -> ()
      in
      loop ());
  if snapshot_every > 0 then take_frame !served_count;
  let alerts = List.rev !alerts in
  let snapshots = List.rev !snapshots in
  let gate, call = Pool.merged_hists p in
  let completed = p.Pool.served and failed = p.Pool.failed in
  let retired = Pool.retired p in
  let shed = Array.fold_left (fun a tn -> a + Tenant.sheds tn) 0 tns in
  let insns_per_request =
    if completed = 0 then 0.0
    else float_of_int !serve_insns /. float_of_int completed
  in
  (* simulated wall-clock throughput: requests per second at the
     modeled clock, from the cycles spent serving *)
  let requests_per_sec =
    if !serve_cycles <= 0.0 then 0.0
    else
      float_of_int completed
      /. (!serve_cycles /. (uarch.Cost_model.clock_ghz *. 1e9))
  in
  let dur = duration () in
  let achieved_rps =
    if dur <= 0.0 then 0.0
    else float_of_int !served_count /. (dur /. clock_hz)
  in
  let tenant_stats =
    Array.to_list
      (Array.mapi
         (fun t (tn : pending Tenant.t) ->
           let s = tn.Tenant.spec in
           {
             ts_name = s.Tenant.t_name;
             ts_weight = s.Tenant.t_weight;
             ts_quota_rps = (if Tenant.has_quota tn then s.Tenant.t_quota_rps else 0.0);
             ts_queue_bound = s.Tenant.t_queue_bound;
             ts_admitted = tn.Tenant.admitted;
             ts_completed = tn.Tenant.completed;
             ts_failed = tn.Tenant.failed;
             ts_shed_queue = tn.Tenant.shed_queue;
             ts_shed_quota = tn.Tenant.shed_quota;
             ts_depth_max = tn.Tenant.depth_max;
             ts_depth_avg = Tenant.depth_avg tn;
             ts_steals = tn.Tenant.steals;
             ts_quota_util = Tenant.quota_utilization tn ~duration:dur;
             ts_p50 = H.percentile lat_tenant.(t) 0.50;
             ts_p99 = H.percentile lat_tenant.(t) 0.99;
             ts_p999 = H.percentile lat_tenant.(t) 0.999;
           })
         tns)
  in
  let lat_p50 = H.percentile lat_overall 0.50 in
  let lat_p99 = H.percentile lat_overall 0.99 in
  let lat_p999 = H.percentile lat_overall 0.999 in
  let lat_mean =
    if lat_overall.H.count = 0 then Float.nan else H.mean lat_overall
  in
  let f1 = Json.float and f0 = Json.float ~digits:0 in
  let rate =
    match arrival with
    | Arrival.Open { rate_rps } -> f0 rate_rps
    | _ -> Json.Null
  in
  let conc =
    match arrival with
    | Arrival.Closed { concurrency } -> Json.Int concurrency
    | _ -> Json.Null
  in
  let percentiles ~p50 ~p99 ~p999 ~mean =
    [ ("p50", f1 p50); ("p99", f1 p99); ("p999", f1 p999); ("mean", f1 mean) ]
  in
  (* one row per tenant, placed in the report (each row after the first
     on a line of its own) and in the suite summary (all inline) *)
  let tenant_json =
    List.map
      (fun ts ->
        Json.Object
          [ ("tenant", String ts.ts_name); ("weight", Int ts.ts_weight);
            ("quota_rps", if ts.ts_quota_rps > 0.0 then f0 ts.ts_quota_rps else Null);
            ("queue_bound", Int ts.ts_queue_bound);
            ("admitted", Int ts.ts_admitted); ("completed", Int ts.ts_completed);
            ("failed", Int ts.ts_failed); ("shed_queue", Int ts.ts_shed_queue);
            ("shed_quota", Int ts.ts_shed_quota);
            ("quota_utilization", Json.float ~digits:3 ts.ts_quota_util);
            ("depth_max", Int ts.ts_depth_max);
            ("depth_avg", f1 ts.ts_depth_avg); ("steals", Int ts.ts_steals);
            ("p50", f1 ts.ts_p50); ("p99", f1 ts.ts_p99); ("p999", f1 ts.ts_p999) ])
      tenant_stats
  in
  let om = Window.merged overall in
  let doc =
    Json.block
      ([ ("schema", Json.String "lfi-serve/v3");
         ("workload", String spec.Api.l_short);
         ("system", String (Lfi_core.Config.name config));
         ("uarch", String uarch.Cost_model.name); ("pool", Int pool);
         ("requests", Int requests); ("seed", Int seed) ]
      @ (if filter = [] then []
         else [ ("filter", Json.Array (List.map (fun f -> Json.String f) filter)) ])
      @ [ ("completed", Int completed); ("failed", Int failed);
          ("instances_lost", Int retired); ("serve_cycles", f1 !serve_cycles);
          ("serve_insns", Int !serve_insns);
          ("insns_per_request", f1 insns_per_request);
          ("requests_per_sec", f0 requests_per_sec);
          ("transition_cycles", H.json gate);
          ("transition_p50", f1 (H.percentile gate 0.50));
          ("transition_p99", f1 (H.percentile gate 0.99));
          ("call_cycles", H.json call);
          ("call_p50", f1 (H.percentile call 0.50));
          ("call_p99", f1 (H.percentile call 0.99));
          ("call_p999", f1 (H.percentile call 0.999));
          (* the per-request phase breakdown: where a request's cycles go
             across the boundary (marshal_in is host-side work the
             simulated clock does not advance through; queue wait
             advances it only under the open/closed arrival models) *)
          ( "phases",
            Object
              (List.map
                 (fun ph -> (Span.name ph, f1 phase_tot.(Span.index ph)))
                 Span.all) );
          (* rolling (windowed) view: what lfi_top shows live *)
          ( "windows",
            Object
              [ ("window_cycles", f0 window_cycles);
                ("spanned", Int (Window.spanned overall));
                ("evicted", Int (Window.evicted overall));
                ( "overall",
                  Nl
                    (Object
                       (percentiles ~p50:(H.percentile om 0.50)
                          ~p99:(H.percentile om 0.99)
                          ~p999:(H.percentile om 0.999)
                          ~mean:(if om.H.count = 0 then Float.nan else H.mean om))) );
                ( "per_export",
                  Nl
                    (Array
                       (List.map
                          (fun (x : Snapshot.export_row) ->
                            Json.Object
                              [ ("export", String x.Snapshot.x_name);
                                ("requests", Int x.Snapshot.x_req);
                                ("errors", Int x.Snapshot.x_err);
                                ("p50", f1 x.Snapshot.x_p50);
                                ("p99", f1 x.Snapshot.x_p99);
                                ("p999", f1 x.Snapshot.x_p999);
                                ("mean", f1 x.Snapshot.x_mean);
                                ("insns_per_request", f1 x.Snapshot.x_ipr) ])
                          (export_rows ()))) ) ] );
          ( "slo",
            Object
              [ ( "objectives",
                  Array
                    (List.map
                       (fun s ->
                         let o = s.Api.s_objective in
                         Json.Object
                           [ ("export", String s.Api.s_export);
                             ("latency_cycles", f0 o.Slo.latency_cycles);
                             ("latency_budget", Json.float ~digits:3 o.Slo.latency_budget);
                             ("error_budget", Json.float ~digits:3 o.Slo.error_budget) ])
                       spec.Api.l_slos) );
                ("alerts", Array (List.map Slo.alert_json alerts)) ] );
          (* v3: arrival model, end-to-end latency, and the scheduling layer *)
          ( "arrival",
            Object
              [ ("model", String (Arrival.name arrival)); ("rate_rps", rate);
                ("concurrency", conc); ("offered", Int requests);
                ("served", Int !served_count); ("shed", Int shed);
                ("duration_cycles", f1 dur); ("achieved_rps", f0 achieved_rps);
                ( "latency",
                  Nl
                    (Object
                       (percentiles ~p50:lat_p50 ~p99:lat_p99 ~p999:lat_p999
                          ~mean:lat_mean)) ) ] );
          ( "tenants",
            Array (List.mapi (fun i r -> if i = 0 then r else Json.Nl r) tenant_json) );
          ( "sched",
            Object
              [ ("batch_max", Int batch_max); ("batches", Int !batches);
                ("batched_requests", Int !batched_reqs);
                ( "dispatch_decision_cycles",
                  f1 (if replaying then 0.0 else dispatch_decision_cycles) );
                ("steals", Int !steals_total) ] );
          (* the §5.3 comparison: what the same boundary crossing costs
             under process isolation (gvisor is unmeasured/NaN on some
             uarches → null) *)
          ( "baselines",
            Object
              [ ("lfi_transition_mean", f1 (H.mean gate));
                ("linux_pipe_roundtrip", f1 uarch.Cost_model.linux_pipe_roundtrip);
                ("gvisor_pipe_roundtrip", f1 uarch.Cost_model.gvisor_pipe_roundtrip) ] );
          ("per_slot", Array (List.map Snapshot.slot_json (slot_rows ())));
          ( "per_export",
            Object
              (List.map
                 (fun (name, w, _) ->
                   (name, Json.Int (Window.total_ok w + Window.total_err w)))
                 export_state) ) ])
  in
  (* condensed one-object view of the same run, for suite embedding *)
  let summary =
    Json.Object
      ([ ("uarch", Json.String uarch.Cost_model.name); ("pool", Int pool);
         ("tenant_count", Int ntenants); ("requests", Int requests);
         ("seed", Int seed); ("model", String (Arrival.name arrival));
         ("rate_rps", rate); ("concurrency", conc); ("completed", Int completed);
         ("failed", Int failed); ("shed", Int shed);
         ("duration_cycles", f1 dur); ("achieved_rps", f0 achieved_rps) ]
      @ percentiles ~p50:lat_p50 ~p99:lat_p99 ~p999:lat_p999 ~mean:lat_mean
      @ [ ("steals", Int !steals_total); ("batches", Int !batches);
          ("per_tenant", Array tenant_json) ])
  in
  {
    doc;
    json = Json.to_string doc ^ "\n";
    completed;
    failed;
    shed;
    retired;
    gate_p50 = H.percentile gate 0.50;
    gate_p99 = H.percentile gate 0.99;
    gate_mean = H.mean gate;
    call_p50 = H.percentile call 0.50;
    call_p99 = H.percentile call 0.99;
    call_p999 = H.percentile call 0.999;
    latency_p50 = lat_p50;
    latency_p99 = lat_p99;
    latency_p999 = lat_p999;
    insns_per_request;
    requests_per_sec;
    achieved_rps;
    duration_cycles = dur;
    steals = !steals_total;
    batches = !batches;
    tenants = tenant_stats;
    alerts;
    snapshots;
    summary;
  }

(* ------------------------------------------------------------------ *)
(* The committed bench suite                                           *)
(* ------------------------------------------------------------------ *)

(** Parameters of the committed `BENCH_serve.json` scale runs, shared
    between `lfi_serve --suite` (which writes the file) and
    `bench --compare` (which re-runs the closed-loop point to gate
    p999 regressions).  The anchor replay run keeps its own CLI
    parameters in the Makefile. *)
module Suite = struct
  let pool = 256
  let requests = 3000
  let concurrency = 64
  let open_rate = 800_000.0
  let batch_max = 8

  (** Four xzbox tenants: a free-for-all heavyweight and three quota
      classes.  At the open-loop rate the bronze tenant's weighted
      arrival share (1/10 of 800k) exceeds its 60k quota, so the
      deterministic quota shed path is exercised in the committed
      numbers. *)
  let tenants =
    [
      { Tenant.t_name = "free0"; t_weight = 4; t_queue_bound = 256;
        t_quota_rps = 0.0; t_burst = 1.0 };
      { Tenant.t_name = "gold1"; t_weight = 3; t_queue_bound = 128;
        t_quota_rps = 320_000.0; t_burst = 32.0 };
      { Tenant.t_name = "silver2"; t_weight = 2; t_queue_bound = 64;
        t_quota_rps = 180_000.0; t_burst = 16.0 };
      { Tenant.t_name = "bronze3"; t_weight = 1; t_queue_bound = 32;
        t_quota_rps = 60_000.0; t_burst = 8.0 };
    ]

  let knee_pool = 64
  let knee_requests = 900

  let knee_rates =
    [ 600_000.0; 800_000.0; 1_000_000.0; 1_100_000.0; 1_300_000.0;
      1_600_000.0 ]

  (** A swept rate is sustainable while its overall p999 stays within
      4x the lowest swept rate's p999 and no tenant shed on queue
      bound; the knee is the largest sustainable rate. *)
  let sustainable ~(base_p999 : float) (r : report) =
    r.latency_p999 <= 4.0 *. base_p999
    && List.for_all (fun ts -> ts.ts_shed_queue = 0) r.tenants
end
