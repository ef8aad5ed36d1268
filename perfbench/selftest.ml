(* Cross-checks of the benchmark itself, run from the repository root
   by `python3 perfbench/run.py --selftest`.  Exits 1 on the first
   failed check. *)

let check name ok detail =
  if ok then Printf.printf "ok   %s\n%!" name
  else begin
    Printf.printf "FAIL %s: %s\n%!" name detail;
    exit 1
  end

let read_file file = In_channel.with_open_bin file In_channel.input_all

(* The committed interpreter exit codes are the interpreter's. *)
let interp_exit_codes () =
  List.iter
    (fun (w : Lfi_workloads.Common.t) ->
      let short = w.Lfi_workloads.Common.short in
      let code, _ =
        Lfi_minic.Interp.run ~mem_size:Checks.interp_mem_size
          ~fuel:Checks.interp_fuel w.Lfi_workloads.Common.program
      in
      check
        ("interpreter exit code of " ^ short)
        (Int64.to_int code = Checks.spec_exit short)
        (Printf.sprintf "interpreter %Ld, committed %d" code (Checks.spec_exit short)))
    Lfi_workloads.Registry.all

let index_of s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = if i + m > n then raise Not_found else if String.sub s i m = sub then i else go (i + 1) in
  go 0

let contains s sub = match index_of s sub with _ -> true | exception Not_found -> false

(* Field [key] of the m1 O2 row for [workload] in BENCH_emulator.json's
   "overhead" array, as written there (one row per line). *)
let committed_overhead workload key =
  String.split_on_char '\n' (read_file "BENCH_emulator.json")
  |> List.find_map (fun line ->
         if
           List.for_all (contains line)
             [ Printf.sprintf "{\"workload\": \"%s\"" workload;
               "\"uarch\": \"m1\""; "\"opt\": \"O2\"" ]
         then
           let i = index_of line (Printf.sprintf "\"%s\": " key) + String.length key + 4 in
           Some (Scanf.sscanf (String.sub line i (String.length line - i)) "%[-0-9.]" Fun.id)
         else None)
  |> Option.value ~default:"missing"

(* The m1 LFI O2 geomean of EXPERIMENTS.md E1, e.g. "5.8%". *)
let committed_geomean () =
  String.split_on_char '\n' (read_file "EXPERIMENTS.md")
  |> List.find (fun l -> contains l "**measured, m1**")
  |> String.split_on_char '|'
  |> List.map String.trim
  |> List.filter (( <> ) "")
  |> fun cells -> List.nth cells 3

let spec_cross_checks () =
  let b = Spec_wl.build () in
  let results =
    List.map (fun j -> (j, Spec_wl.run_job ~id:0 ~metrics:false j)) b.Spec_wl.jobs
  in
  List.iter
    (fun ((j : Spec_wl.job), (o : Spec_wl.outcome)) ->
      check
        (Printf.sprintf "%s %s exit code" (if j.sandboxed then "O2" else "native") j.short)
        (o.error = None)
        (Option.value o.error ~default:""))
    results;
  List.iter
    (fun short ->
      let cycles sandboxed =
        List.find_map
          (fun ((j : Spec_wl.job), (o : Spec_wl.outcome)) ->
            if j.short = short && j.sandboxed = sandboxed then Some o.cycles else None)
          results
        |> Option.get
      in
      List.iter
        (fun (key, ours) ->
          let theirs = committed_overhead short key in
          check
            (Printf.sprintf "%s m1 O2 %s = BENCH_emulator.json" short key)
            (ours = theirs)
            (Printf.sprintf "measured %s, committed %s" ours theirs))
        [ ("native_cycles", Printf.sprintf "%.1f" (cycles false));
          ("cycles", Printf.sprintf "%.1f" (cycles true));
          ("overhead_pct",
            Printf.sprintf "%.2f" ((cycles true /. cycles false -. 1.0) *. 100.0)) ])
    [ "mcf"; "xz" ];
  let ours = Spec_wl.sfi_overhead_pct results in
  let _, geomeans = Lfi_experiments.Fig3.measure ~uarch:Lfi_emulator.Cost_model.m1 in
  let fig3 = List.nth geomeans 2 in
  check "sfi_overhead_pct = Figure 3 (E1) m1 O2 geomean, as the experiment computes it"
    (Float.abs (ours -. fig3) < 1e-9)
    (Printf.sprintf "benchmark %.6f%%, Figure 3 %.6f%%" ours fig3);
  (* EXPERIMENTS.md predates the compiler fix that moved these cycle
     counts, so its E1 table is reported, not enforced. *)
  let doc = committed_geomean () and ours = Printf.sprintf "%.1f%%" ours in
  Printf.printf "%s EXPERIMENTS.md E1 m1 O2 geomean: committed %s, measured %s\n"
    (if doc = ours then "ok  " else "STALE") doc ours

let refused f = match f () with _ -> false | exception Stats.Refused _ -> true

let percentile_checks () =
  let xs n = Array.init n (fun i -> float_of_int (n - i)) in
  check "p99 of 1..1000 is 990 with 10 samples beyond"
    (Stats.percentile ~permille:990 (xs 1000) = 990.0) "";
  check "p99 of 999 samples (9 beyond) is refused"
    (refused (fun () -> Stats.percentile ~permille:990 (xs 999))) "";
  check "p50 of 20 samples is 10" (Stats.percentile ~permille:500 (xs 20) = 10.0) "";
  check "p50 of 19 samples (9 beyond) is refused"
    (refused (fun () -> Stats.percentile ~permille:500 (xs 19))) ""

let corrupted_reply_checks () =
  let pool = Lib_wl.create_pool ~size:1 (Lib_wl.create_library ()) in
  let next = Lib_wl.request_stream 1 and st = Checks.lib_state () in
  let seen = Hashtbl.create 4 in
  while Hashtbl.length seen < 4 do
    let name, args = next () in
    match Lfi_libbox.Pool.dispatch pool name args with
    | _, Error e -> check name false (Lfi_libbox.Api.error_to_string e)
    | _, Ok reply ->
        check ("reply of " ^ name ^ " passes")
          (Checks.xzbox_reply st name args reply = Ok ()) "";
        if not (Hashtbl.mem seen name) then begin
          Hashtbl.replace seen name ();
          let bad_ret = { reply with Lfi_libbox.Api.ret = Int64.succ reply.Lfi_libbox.Api.ret } in
          check ("wrong return value of " ^ name ^ " is caught")
            (Checks.xzbox_reply st name args bad_ret <> Ok ()) "";
          match reply.Lfi_libbox.Api.outs with
          | out :: _ when Bytes.length out > 0 ->
              let out = Bytes.copy out in
              Bytes.set out 0 (Char.chr (Char.code (Bytes.get out 0) lxor 1));
              check ("corrupted output bytes of " ^ name ^ " are caught")
                (Checks.xzbox_reply st name args { reply with Lfi_libbox.Api.outs = [ out ] } <> Ok ())
                ""
          | _ -> ()
        end
  done

(* Self time on a hand-built tree, times in ns:
     bench.request [0,100)   children libbox.call [10,30), libbox.reset [40,50)
     libbox.call              child emulator.run [15,25)
     libbox.spawn [120,150)   a second root
   traced wall [0,200). *)
let self_time_checks () =
  let span name parent start stop = { Tracer.name; id = 1; parent; start; stop } in
  let spans =
    [| span "bench.request" (-1) 0 100; span "libbox.call" 0 10 30;
       span "emulator.run" 1 15 25; span "libbox.reset" 0 40 50;
       span "libbox.spawn" (-1) 120 150 |]
  in
  check "self times" (Tracer.self_times spans = [| 70; 10; 10; 10; 30 |])
    (String.concat " " (Array.to_list (Array.map string_of_int (Tracer.self_times spans))));
  let t = { Tracer.spans; len = 5; stack = []; t_start = 0; t_stop = 200 } in
  let a = Tracer.account t in
  check "bench.other = bench self time + uncovered wall" (a.Tracer.other_ns = 70 + 70)
    (string_of_int a.Tracer.other_ns);
  check "layer self times + bench.other = traced wall"
    (List.fold_left
       (fun acc (n, (_, ns)) -> if Tracer.is_layer n then acc + ns else acc)
       a.Tracer.other_ns a.Tracer.self_by_name
    = 200)
    "";
  check "union of overlapping intervals"
    (Tracer.covered ~lo:0 ~hi:100 [ (20, 50); (10, 30); (90, 120) ] = 50) "";
  let t = Tracer.create () in
  Tracer.with_span t ~id:7 "bench.request" (fun () ->
      Tracer.with_span t ~id:7 "libbox.call" ignore;
      Tracer.with_span t ~id:7 "libbox.reset" ignore);
  Tracer.finish t;
  check "recorded parents"
    (Array.map (fun s -> s.Tracer.parent) (Tracer.spans t) = [| -1; 0; 0 |]) ""

let () =
  percentile_checks ();
  self_time_checks ();
  corrupted_reply_checks ();
  interp_exit_codes ();
  spec_cross_checks ();
  print_endline "selftest: all checks passed"
