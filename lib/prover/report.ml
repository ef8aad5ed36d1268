(** The [lfi-prove/v1] report (DESIGN.md §5i).

    Byte-stable by construction, like the fuzz and bench reports: the
    JSON has a fixed field order, counts are fully
    determined by (strata tier, verifier config), and wall-clock
    timing is only included when explicitly requested ([~elapsed_ms]),
    so the default report can be pinned by a golden test and compared
    byte-for-byte in CI. *)

type hole = {
  word : int;  (** encoding of the offending instruction *)
  disasm : string;
  clause : string;  (** violated invariant clause, cf. {!Invariant.clause_name} *)
  detail : string;
}

type stratum_result = {
  s_name : string;
  candidates : int;  (** encodings enumerated *)
  rejected : int;  (** verifier refused every completion *)
  accepted : int;  (** verifier accepted at least one completion *)
  proved : int;  (** accepted and symbolically proved *)
  holes : int;  (** accepted but unprovable: soundness holes *)
  samples : hole list;  (** first few holes, for the report *)
}

type t = {
  tier : string;  (** "smoke" or "full" *)
  weakenings : string list;  (** deliberate config weakenings applied *)
  strata : stratum_result list;
  elapsed_ms : int option;
}

let total f r = List.fold_left (fun a s -> a + f s) 0 r.strata
let total_holes r = total (fun s -> s.holes) r

(* ---- JSON ---- *)

let to_json (r : t) : string =
  let module J = Lfi_telemetry.Json in
  let counts f =
    [ ("candidates", J.Int (f (fun s -> s.candidates)));
      ("rejected", J.Int (f (fun s -> s.rejected)));
      ("accepted", J.Int (f (fun s -> s.accepted)));
      ("proved", J.Int (f (fun s -> s.proved)));
      ("holes", J.Int (f (fun s -> s.holes))) ]
  in
  let hole h =
    J.Object
      [ ("word", J.String (Printf.sprintf "0x%08x" h.word));
        ("disasm", J.String h.disasm); ("clause", J.String h.clause);
        ("detail", J.String h.detail) ]
  in
  let stratum s =
    J.Object
      ((("name", J.String s.s_name) :: counts (fun f -> f s))
      @ [ ("samples", J.Array (List.map hole s.samples)) ])
  in
  J.to_string ~compact:true
    (J.Object
       [ ("schema", J.String "lfi-prove/v1"); ("tier", J.String r.tier);
         ("weakenings", J.Array (List.map (fun w -> J.String w) r.weakenings));
         ("strata", J.Array (List.map stratum r.strata));
         ("totals", J.Object (counts (fun f -> total f r)));
         ("elapsed_ms", J.option (fun ms -> J.Int ms) r.elapsed_ms) ])

(* ---- human summary ---- *)

let pp fmt (r : t) =
  Format.fprintf fmt "lfi-prove/v1 · tier %s%s@." r.tier
    (match r.weakenings with
    | [] -> ""
    | ws -> " · weakened: " ^ String.concat ", " ws);
  Format.fprintf fmt "  %-14s %10s %9s %9s %9s %7s@." "stratum"
    "candidates" "rejected" "accepted" "proved" "holes";
  List.iter
    (fun s ->
      Format.fprintf fmt "  %-14s %10d %9d %9d %9d %7d@." s.s_name
        s.candidates s.rejected s.accepted s.proved s.holes)
    r.strata;
  Format.fprintf fmt "  %-14s %10d %9d %9d %9d %7d@." "total"
    (total (fun s -> s.candidates) r)
    (total (fun s -> s.rejected) r)
    (total (fun s -> s.accepted) r)
    (total (fun s -> s.proved) r)
    (total_holes r);
  List.iter
    (fun s ->
      List.iter
        (fun h ->
          Format.fprintf fmt "  HOLE %s: 0x%08x  %-28s %s: %s@." s.s_name
            h.word h.disasm h.clause h.detail)
        s.samples)
    r.strata;
  match r.elapsed_ms with
  | Some ms -> Format.fprintf fmt "  elapsed: %d ms@." ms
  | None -> ()
