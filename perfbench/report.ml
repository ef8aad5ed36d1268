(** Metric names and units, and the run's output.

    The two lists below are the benchmark's contract with
    BENCHMARK.json: an untraced run reports every [end_to_end] metric
    and a traced run every [per_layer] metric, on every workload.  A
    metric a workload cannot measure (a library layer on [spec], a
    toolchain layer on [lib-*]) is reported as 0 and marked n/a in the
    printed table; README.md says which.  Names and units are plain
    ASCII without quotes, so the JSON needs no escaping. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("insns_per_s", "insn/s");
    ("insns_per_s_metrics", "insn/s");
    ("req_per_s", "req/s");
    ("req_p50_us", "us");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  [
    ("req_p99_us", "us");
    ("sfi_overhead_pct", "%");
    ("sim_call_p99_cycles", "cycles");
    ("sim_gate_mean_cycles", "cycles");
    ("emulator.insns", "insn");
    ("emulator.run.ns_per_insn", "ns/insn");
    ("emulator.run.alloc_words_per_insn", "words/insn");
    ("emulator.run_metrics.ns_per_insn", "ns/insn");
    ("emulator.block_hit_rate", "ratio");
    ("emulator.deopts", "count");
    ("libbox.call.us_p50", "us");
    ("libbox.call.us_p99", "us");
    ("libbox.call.ns_per_insn", "ns/insn");
    ("libbox.call.insns", "insn");
    ("libbox.call.alloc_words", "words");
    ("libbox.reset.us_p50", "us");
    ("libbox.reset.pages_restored", "pages");
    ("libbox.reset.dirty_ratio", "ratio");
    ("libbox.reset.alloc_words", "words");
    ("libbox.spawn.ms", "ms");
    ("libbox.spawn.alloc_words", "words");
    ("libbox.library.create.ms", "ms");
    ("libbox.pool.pick.us", "us");
    ("core.rewrite.guards", "count");
    ("core.rewrite.hoists", "count");
    ("minic.compile.us", "us");
    ("core.rewrite.us", "us");
    ("arm64.assemble.us", "us");
    ("elf.write.us", "us");
    ("elf.read.us", "us");
    ("verifier.verify.us", "us");
    ("verifier.verify.mb_per_s", "MB/s");
    ("runtime.load.us", "us");
    ("gc.minor_words_per_req", "words");
    ("gc.major_collections", "count");
    ("bench.wall_s", "s");
    ("bench.other_s", "s");
    ("bench.overhead_share", "ratio");
    ("bench.trace_overhead_pct", "%");
    ("bench.machine_slowdown", "ratio");
  ]

(** Printed by every run next to its metrics, never in the JSON: the
    failure ratio is already the JSON's [failed]/[attempted]. *)
let printed_only = [ ("error_rate", "ratio") ]

let unit_of name =
  match List.assoc_opt name (end_to_end @ per_layer @ printed_only) with
  | Some u -> u
  | None -> invalid_arg ("Report: unknown metric " ^ name)

type t = { values : (string, float * string) Hashtbl.t }

let create () = { values = Hashtbl.create 64 }

(** Record [name] (which must be in one of the lists above); [note]
    is printed beside it, e.g. the sample count of a percentile. *)
let set ?(note = "") r name v =
  ignore (unit_of name);
  Hashtbl.replace r.values name (v, note)

let get r name = Option.map fst (Hashtbl.find_opt r.values name)

let print_table r names =
  List.iter
    (fun name ->
      let unit = unit_of name in
      match Hashtbl.find_opt r.values name with
      | Some (v, note) ->
          Printf.printf "  %-36s %16.6g %-10s %s\n" name v unit note
      | None -> Printf.printf "  %-36s %16s %-10s n/a on this workload\n" name "0" unit)
    names

(* Every digit of the measured value; a value that is not a finite
   number is a fault of the benchmark, not a result. *)
let json_number name v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else failwith (Printf.sprintf "metric %s is not a finite number (%g)" name v)

(** The result line: the last line of standard output. *)
let json_line r ~names ~correct ~attempted ~failed =
  let metrics =
    List.map
      (fun (name, unit) ->
        let v = Option.value (get r name) ~default:0.0 in
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
          (json_number name v) unit)
      names
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " metrics)

(** Print the traced run's self-time table and record the accounting
    metrics.  Fails if layer self times plus [bench.other_s] do not add
    up to the traced wall time. *)
let account r (a : Tracer.account) =
  let wall = float_of_int a.Tracer.wall_ns in
  let layer_self =
    List.fold_left
      (fun acc (name, (_, ns)) -> if Tracer.is_layer name then acc + ns else acc)
      0 a.Tracer.self_by_name
  in
  let bench_self names =
    List.fold_left
      (fun acc (name, (_, ns)) -> if List.mem name names then acc + ns else acc)
      0 a.Tracer.self_by_name
  in
  Printf.printf "  self time by span (traced wall %.3f s)\n" (wall /. 1e9);
  List.iter
    (fun (name, (n, ns)) ->
      Printf.printf "    %-28s %8d spans %12.6f s %6.2f %%\n" name n
        (float_of_int ns /. 1e9)
        (100.0 *. float_of_int ns /. wall))
    a.Tracer.self_by_name;
  Printf.printf "    %-28s %27.6f s  (layer self %.6f s + other %.6f s)\n"
    "accounted" (float_of_int (layer_self + a.Tracer.other_ns) /. 1e9)
    (float_of_int layer_self /. 1e9)
    (float_of_int a.Tracer.other_ns /. 1e9);
  if layer_self + a.Tracer.other_ns <> a.Tracer.wall_ns then
    failwith "traced wall time is not accounted for by self times + other";
  set r "bench.wall_s" (wall /. 1e9) ~note:"traced wall time";
  set r "bench.other_s" (float_of_int a.Tracer.other_ns /. 1e9)
    ~note:"outside every layer span";
  set r "bench.overhead_share"
    (float_of_int (bench_self [ "bench.gen"; "bench.check" ]) /. wall)
    ~note:"argument generation and output checks"
