(* Host-time benchmark.  See README.md; run it through run.py,
   which builds it first:

     python3 perfbench/run.py --workload lib-warm --seed 1 --seconds 20 --trace 0

   Prints a table of every metric with its unit, then one JSON result
   line.  Exits 1 if any output was wrong, 2 if the run itself failed. *)

let workloads = [ "spec"; "lib-warm"; "lib-dense" ]

let read_lines file =
  match open_in file with
  | exception Sys_error _ -> []
  | ic ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file ->
            close_in ic;
            List.rev acc
      in
      go []

(* "key<tab>: value" lines of /proc files *)
let field lines key =
  List.find_map
    (fun l ->
      match String.index_opt l ':' with
      | Some i when String.trim (String.sub l 0 i) = key ->
          Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
      | _ -> None)
    lines

let peak_rss_mb () =
  match field (read_lines "/proc/self/status") "VmHWM" with
  | Some v -> Scanf.sscanf v "%d kB" (fun kb -> float_of_int kb /. 1024.0)
  | None -> failwith "no VmHWM in /proc/self/status"

let machine () =
  let cpu = read_lines "/proc/cpuinfo" in
  let nproc = List.length (List.filter (fun l -> field [ l ] "processor" <> None) cpu) in
  Printf.sprintf "nproc=%d cpu=%S ocaml=%s" nproc
    (Option.value (field cpu "model name") ~default:"unknown")
    Sys.ocaml_version

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20 and trace = ref 0 in
  let spans_out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat " | " workloads);
      ("--seed", Arg.Set_int seed, "N  seed of the generated inputs");
      ("--seconds", Arg.Set_int seconds, "N  measured time of the run");
      ("--trace", Arg.Set_int trace, "0|1  untraced (end-to-end) or traced (per-layer) run");
      ("--spans-out", Arg.Set_string spans_out, "FILE  where a traced run writes its spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds N --trace 0|1";
  if
    (not (List.mem !workload workloads))
    || !seconds < 1
    || (!trace <> 0 && !trace <> 1)
    || (!trace = 1 && !spans_out = "")
  then begin
    prerr_endline
      "main.exe: need --workload (spec|lib-warm|lib-dense), --seconds >= 1, \
       --trace 0|1, and --spans-out with --trace 1";
    exit 2
  end;
  let r = Report.create () in
  let seconds = float_of_int !seconds and seed = !seed in
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%d\n%s\n%!" !workload seed
    seconds !trace (machine ());
  match
    let traced = !trace = 1 in
    let lib shape =
      if traced then Lib_wl.run_traced r shape ~seed ~seconds ~spans_out:!spans_out
      else Lib_wl.run_untraced r shape ~seed ~seconds
    in
    match !workload with
    | "spec" ->
        if traced then Spec_wl.run_traced r ~seed ~seconds ~spans_out:!spans_out
        else Spec_wl.run_untraced r ~seed ~seconds
    | "lib-warm" -> lib Lib_wl.warm
    | _ -> lib Lib_wl.dense
  with
  | exception e ->
      Printf.eprintf "perfbench: run failed: %s\n" (Printexc.to_string e);
      exit 2
  | attempted, failed ->
      if !trace = 0 then Report.set r "peak_rss_mb" (peak_rss_mb ()) ~note:"VmHWM";
      Report.set r "error_rate" (float_of_int failed /. float_of_int attempted)
        ~note:(Printf.sprintf "%d of %d" failed attempted);
      let names = if !trace = 0 then Report.end_to_end else Report.per_layer in
      let shown =
        if !trace = 0 then
          List.map fst Report.end_to_end
          @ [ "req_p99_us"; "sfi_overhead_pct"; "sim_call_p99_cycles";
              "sim_gate_mean_cycles" ]
        else List.map fst Report.per_layer
      in
      Report.print_table r (shown @ List.map fst Report.printed_only);
      let correct = failed = 0 in
      print_endline (Report.json_line r ~names ~correct ~attempted ~failed);
      exit (if correct then 0 else 1)
