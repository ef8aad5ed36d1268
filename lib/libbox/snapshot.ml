(** Byte-stable [lfi-snap/v2] serving snapshots.

    A snapshot is one JSON line capturing the serving layer mid-run:
    per-export rolling latency (p50/p99/p999 over the retained
    windows), per-slot pool state, per-tenant scheduler state (queue
    depth, quota utilization, sheds — v2), the cumulative span-phase
    cycle breakdown, and every SLO burn-rate alert fired so far.
    Everything derives from the seed and the simulated clock, so the
    frames `lfi_serve --snapshot --snapshot-every N` writes are
    byte-identical across runs — CI diffs a committed copy, and the
    golden test pins the format.

    {!of_json} still parses [lfi-snap/v1] frames (pre-multi-tenant
    recordings replay in `lfi_top` unchanged; their tenant table is
    simply empty).

    {!to_json} renders a frame, {!of_json} parses one back (both
    through {!Lfi_telemetry.Json}), and {!render} lays a parsed frame
    out as the `lfi_top` table. *)

module Json = Lfi_telemetry.Json
module Slo = Lfi_telemetry.Slo

(* ------------------------------------------------------------------ *)
(* Snapshot model                                                       *)
(* ------------------------------------------------------------------ *)

type export_row = {
  x_name : string;
  x_req : int;  (** cumulative requests dispatched to this export *)
  x_err : int;  (** cumulative failures *)
  x_p50 : float;  (** rolling percentiles over the retained windows *)
  x_p99 : float;
  x_p999 : float;
  x_mean : float;  (** rolling mean latency, cycles *)
  x_ipr : float;  (** rolling insns per ok request *)
  x_burn_fast : float;  (** current fast/slow latency burn rates *)
  x_burn_slow : float;
  x_alerting : bool;  (** both burn rates ≥ 1.0 right now *)
}

type slot_row = {
  sl_slot : int;
  sl_pid : int;
  sl_alive : bool;
  sl_calls : int;
  sl_resets : int;
  sl_insns : int;
  sl_restored : int;
}

type tenant_row = {
  tn_name : string;
  tn_depth : int;  (** queued requests right now *)
  tn_depth_max : int;
  tn_admitted : int;
  tn_completed : int;
  tn_failed : int;
  tn_shed_queue : int;  (** rejected: queue at bound *)
  tn_shed_quota : int;  (** rejected: token bucket empty *)
  tn_quota_util : float;  (** share of quota spent; NaN = no quota *)
  tn_steals : int;  (** requests served on another shard's instance *)
  tn_p99 : float;  (** full-run p99 latency, cycles *)
}

type t = {
  workload : string;
  seq : int;  (** requests dispatched when the frame was taken *)
  now : float;  (** cycles since serving started *)
  completed : int;
  failed : int;
  retired : int;
  window_cycles : float;
  windows : int;  (** windows spanned so far *)
  exports : export_row list;
  slots : slot_row list;
  tenants : tenant_row list;  (** empty on parsed v1 frames *)
  phases : (string * float) list;  (** cumulative cycles per span phase *)
  alerts : Slo.alert list;
}

let slot_json (s : slot_row) : Json.t =
  Object
    [ ("slot", Int s.sl_slot); ("pid", Int s.sl_pid); ("alive", Bool s.sl_alive);
      ("calls", Int s.sl_calls); ("resets", Int s.sl_resets);
      ("insns", Int s.sl_insns); ("pages_restored", Int s.sl_restored) ]

(** One frame as a single JSON line (no trailing newline). *)
let to_json (t : t) : string =
  let f1 = Json.float and f2 = Json.float ~digits:2 in
  let exports =
    List.map
      (fun x ->
        Json.Object
          [ ("name", String x.x_name); ("requests", Int x.x_req);
            ("errors", Int x.x_err); ("p50", f1 x.x_p50); ("p99", f1 x.x_p99);
            ("p999", f1 x.x_p999); ("mean", f1 x.x_mean);
            ("insns_per_request", f1 x.x_ipr); ("burn_fast", f2 x.x_burn_fast);
            ("burn_slow", f2 x.x_burn_slow); ("alerting", Bool x.x_alerting) ])
      t.exports
  in
  let tenants =
    List.map
      (fun tn ->
        Json.Object
          [ ("tenant", String tn.tn_name); ("depth", Int tn.tn_depth);
            ("depth_max", Int tn.tn_depth_max);
            ("admitted", Int tn.tn_admitted);
            ("completed", Int tn.tn_completed); ("failed", Int tn.tn_failed);
            ("shed_queue", Int tn.tn_shed_queue);
            ("shed_quota", Int tn.tn_shed_quota);
            ("quota_utilization", Json.float ~digits:3 tn.tn_quota_util);
            ("steals", Int tn.tn_steals); ("p99", f1 tn.tn_p99) ])
      t.tenants
  in
  Json.to_string
    (Object
       [ ("schema", String "lfi-snap/v2"); ("workload", String t.workload);
         ("seq", Int t.seq); ("now", f1 t.now); ("completed", Int t.completed);
         ("failed", Int t.failed); ("instances_lost", Int t.retired);
         ("window_cycles", Json.float ~digits:0 t.window_cycles);
         ("windows", Int t.windows); ("exports", Array exports);
         ("slots", Array (List.map slot_json t.slots)); ("tenants", Array tenants);
         ("phases", Object (List.map (fun (n, c) -> (n, f1 c)) t.phases));
         ("alerts", Array (List.map Slo.alert_json t.alerts)) ])

exception Bad_snapshot of string

(** Parse one frame back.  Raises {!Bad_snapshot} on anything that is
    not an [lfi-snap/v1] or [lfi-snap/v2] line. *)
let of_json (line : string) : t =
  match Json.parse line with
  | exception Json.Parse_error msg -> raise (Bad_snapshot msg)
  | j -> (
      try
        let open Json in
        let schema = str (field "schema" j) in
        if schema <> "lfi-snap/v1" && schema <> "lfi-snap/v2" then
          raise (Bad_snapshot "not an lfi-snap/v1 or /v2 frame");
        {
          workload = str (field "workload" j);
          seq = int (field "seq" j);
          now = num (field "now" j);
          completed = int (field "completed" j);
          failed = int (field "failed" j);
          retired = int (field "instances_lost" j);
          window_cycles = num (field "window_cycles" j);
          windows = int (field "windows" j);
          exports =
            List.map
              (fun x ->
                {
                  x_name = str (field "name" x);
                  x_req = int (field "requests" x);
                  x_err = int (field "errors" x);
                  x_p50 = num (field "p50" x);
                  x_p99 = num (field "p99" x);
                  x_p999 = num (field "p999" x);
                  x_mean = num (field "mean" x);
                  x_ipr = num (field "insns_per_request" x);
                  x_burn_fast = num (field "burn_fast" x);
                  x_burn_slow = num (field "burn_slow" x);
                  x_alerting = boolean (field "alerting" x);
                })
              (arr (field "exports" j));
          slots =
            List.map
              (fun s ->
                {
                  sl_slot = int (field "slot" s);
                  sl_pid = int (field "pid" s);
                  sl_alive = boolean (field "alive" s);
                  sl_calls = int (field "calls" s);
                  sl_resets = int (field "resets" s);
                  sl_insns = int (field "insns" s);
                  sl_restored = int (field "pages_restored" s);
                })
              (arr (field "slots" j));
          tenants =
            (if schema = "lfi-snap/v1" then []
             else
               List.map
                 (fun tn ->
                   {
                     tn_name = str (field "tenant" tn);
                     tn_depth = int (field "depth" tn);
                     tn_depth_max = int (field "depth_max" tn);
                     tn_admitted = int (field "admitted" tn);
                     tn_completed = int (field "completed" tn);
                     tn_failed = int (field "failed" tn);
                     tn_shed_queue = int (field "shed_queue" tn);
                     tn_shed_quota = int (field "shed_quota" tn);
                     tn_quota_util = num (field "quota_utilization" tn);
                     tn_steals = int (field "steals" tn);
                     tn_p99 = num (field "p99" tn);
                   })
                 (arr (field "tenants" j)));
          phases =
            List.map (fun (k, v) -> (k, num v)) (obj (field "phases" j));
          alerts =
            List.map
              (fun a ->
                {
                  Slo.a_export = str (field "export" a);
                  a_window = int (field "window" a);
                  a_kind =
                    (match str (field "kind" a) with
                    | "latency" -> Slo.Latency
                    | "error_rate" -> Slo.Error_rate
                    | k -> raise (Bad_snapshot ("unknown alert kind " ^ k)));
                  a_fast = num (field "fast" a);
                  a_slow = num (field "slow" a);
                })
              (arr (field "alerts" j));
        }
      with Json.Parse_error msg -> raise (Bad_snapshot msg))

(* ------------------------------------------------------------------ *)
(* lfi_top rendering                                                    *)
(* ------------------------------------------------------------------ *)

let fnum (v : float) : string =
  if Float.is_nan v then "-" else Printf.sprintf "%.0f" v

(** Lay one frame out as the `lfi_top` text view. *)
let render (t : t) : string =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let live = List.length (List.filter (fun s -> s.sl_alive) t.slots) in
  add "lfi_top · %s · request %d · %.0f cycles · pool %d/%d live\n" t.workload
    t.seq t.now live (List.length t.slots);
  add "windows: %.0f cycles each, %d spanned · ok %d · err %d · lost %d\n\n"
    t.window_cycles t.windows t.completed t.failed t.retired;
  add "%-12s %7s %5s %8s %8s %8s %8s %10s %11s %s\n" "EXPORT" "REQ" "ERR"
    "P50" "P99" "P999" "MEAN" "INSNS/REQ" "BURN(f/s)" "SLO";
  List.iter
    (fun x ->
      add "%-12s %7d %5d %8s %8s %8s %8s %10s %5.1f/%-5.1f %s\n" x.x_name
        x.x_req x.x_err (fnum x.x_p50) (fnum x.x_p99) (fnum x.x_p999)
        (fnum x.x_mean) (fnum x.x_ipr) x.x_burn_fast x.x_burn_slow
        (if x.x_alerting then "ALERT" else "ok"))
    t.exports;
  add "\n%-6s %5s %6s %7s %7s %12s %12s\n" "SLOT" "PID" "ALIVE" "CALLS"
    "RESETS" "INSNS" "PG.RESTORED";
  List.iter
    (fun s ->
      add "%-6d %5d %6s %7d %7d %12d %12d\n" s.sl_slot s.sl_pid
        (if s.sl_alive then "yes" else "DEAD")
        s.sl_calls s.sl_resets s.sl_insns s.sl_restored)
    t.slots;
  (match t.tenants with
  | [] -> ()
  | tenants ->
      add "\n%-10s %6s %6s %8s %8s %6s %7s %7s %7s %7s %8s\n" "TENANT" "DEPTH"
        "DMAX" "ADMIT" "DONE" "FAIL" "SHED.Q" "SHED.T" "QUOTA%" "STEALS" "P99";
      List.iter
        (fun tn ->
          add "%-10s %6d %6d %8d %8d %6d %7d %7d %7s %7d %8s\n" tn.tn_name
            tn.tn_depth tn.tn_depth_max tn.tn_admitted tn.tn_completed
            tn.tn_failed tn.tn_shed_queue tn.tn_shed_quota
            (if Float.is_nan tn.tn_quota_util then "-"
             else Printf.sprintf "%.0f%%" (100.0 *. tn.tn_quota_util))
            tn.tn_steals (fnum tn.tn_p99))
        tenants);
  let phase_total =
    List.fold_left (fun acc (_, c) -> acc +. c) 0.0 t.phases
  in
  add "\n%-12s %14s %6s\n" "PHASE" "CYCLES" "%";
  List.iter
    (fun (name, cycles) ->
      add "%-12s %14.0f %5.1f%%\n" name cycles
        (if phase_total > 0.0 then 100.0 *. cycles /. phase_total else 0.0))
    t.phases;
  (match t.alerts with
  | [] -> add "\nno SLO alerts\n"
  | alerts ->
      add "\nALERTS (%d):\n" (List.length alerts);
      List.iter
        (fun (a : Slo.alert) ->
          add "  window %3d  %-12s %-10s burn fast %.1f slow %.1f\n"
            a.Slo.a_window a.Slo.a_export
            (Slo.kind_name a.Slo.a_kind)
            a.Slo.a_fast a.Slo.a_slow)
        alerts);
  Buffer.contents b
