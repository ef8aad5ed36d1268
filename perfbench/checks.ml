(** Output checks.  They run outside every per-request timer. *)

module Api = Lfi_libbox.Api
module Libs = Lfi_workloads.Libs

(** Exit code of each SPEC proxy under the MiniC reference interpreter
    ({!Lfi_minic.Interp.run}), which shares no code with the compiler,
    the rewriter or the emulator.  Computed once and committed; the
    self-test recomputes every entry. *)
let spec_exit_codes =
  [
    ("gcc", 13811839);
    ("mcf", 702164774);
    ("namd", 615);
    ("parest", 5587758);
    ("povray", 122444);
    ("lbm", 7876806);
    ("omnetpp", 38478);
    ("xalancbmk", 12983);
    ("x264", 808159);
    ("deepsjeng", 200044);
    ("imagick", 107818);
    ("leela", 11521);
    ("nab", 83087489);
    ("xz", 3605602);
  ]

(** Interpreter settings that run every proxy to completion. *)
let interp_mem_size = 1 lsl 24
let interp_fuel = max_int

let spec_exit (short : string) : int =
  match List.assoc_opt short spec_exit_codes with
  | Some c -> c
  | None -> invalid_arg ("Checks.spec_exit: no reference for " ^ short)

(** [dict_sum] reads the dictionary [init] built before the reset
    baseline, so it must return one value on every instance and every
    call; the first reply fixes that value for the rest of the run. *)
type lib_state = { mutable dict : int64 option }

let lib_state () = { dict = None }

let prefix_equal (a : bytes) (b : bytes) =
  Bytes.length a >= Bytes.length b
  && Bytes.equal (Bytes.sub a 0 (Bytes.length b)) b

(** Check one xzbox reply against the host reference models. *)
let xzbox_reply (st : lib_state) (export : string) (args : Api.arg list)
    (r : Api.reply) : (unit, string) result =
  let fail fmt = Printf.ksprintf (fun s -> Error (export ^ ": " ^ s)) fmt in
  match (export, args, r.Api.outs) with
  | "checksum", [ Api.In src; Api.I _ ], [] ->
      let want = Libs.ref_checksum src in
      if r.Api.ret = Int64.of_int want then Ok ()
      else fail "returned %Ld, reference %d" r.Api.ret want
  | "compress", [ Api.In src; Api.I _; Api.Out _ ], [ out ] ->
      let want = Libs.ref_compress src in
      if r.Api.ret <> Int64.of_int (Bytes.length want) then
        fail "returned length %Ld, reference %d" r.Api.ret (Bytes.length want)
      else if not (prefix_equal out want) then fail "output bytes differ"
      else Ok ()
  | "expand", [ Api.Out _; Api.I len; Api.I seed ], [ out ] ->
      let want, h =
        Libs.ref_expand ~len:(Int64.to_int len) ~seed:(Int64.to_int seed)
      in
      if r.Api.ret <> Int64.of_int h then
        fail "returned %Ld, reference %d" r.Api.ret h
      else if not (Bytes.equal out want) then fail "output bytes differ"
      else Ok ()
  | "dict_sum", [], [] -> (
      match st.dict with
      | None ->
          st.dict <- Some r.Api.ret;
          Ok ()
      | Some d when d = r.Api.ret -> Ok ()
      | Some d -> fail "returned %Ld, earlier calls returned %Ld" r.Api.ret d)
  | _ -> fail "unexpected export or argument shape"
