(** The single-instruction ARM64 interpreter.

    Executes decoded instructions against a {!Machine.t}, charging the
    cost model for every instruction and the TLB for every data access.
    Anything that must escape to the host — memory faults, [svc],
    undefined instructions, or control reaching the runtime region —
    is reported as an {!event}; the runtime decides what it means.

    This module is the semantic reference: the superblock engine
    ({!Block}) lowers hot instructions into specialized closures but
    falls back to {!exec_insn} for everything else, and {!Exec.run}
    deopts to the step loop here whenever an observer that needs every
    instruction's pc (the profiler, the escape oracle) is armed.  The
    step path is engineered to be allocation-free on the common path:
    instruction fetch is an array probe into the machine's per-page
    decode cache, effective addresses are computed by {!addr_of} and
    written back by {!writeback} (no intermediate [(addr, closure)]
    pair), cycle accounting goes through the machine's unboxed
    accumulator, and [step] returns its event directly — the only
    allocations left are the boxed [int64] temporaries inherent to
    OCaml's int64 arithmetic. *)

open Lfi_arm64
open Machine

type trap =
  | Mem_fault of Memory.fault
  | Undefined of int64  (** pc of a [Udf] or unsupported instruction *)
  | Svc_trap of int  (** pc already advanced past the svc *)

type event =
  | Quantum_expired
  | Runtime_entry of int64  (** pc within the host runtime region *)
  | Trap of trap

let pp_trap fmt = function
  | Mem_fault f -> Memory.pp_fault fmt f
  | Undefined pc -> Format.fprintf fmt "undefined instruction at 0x%Lx" pc
  | Svc_trap n -> Format.fprintf fmt "svc #%d" n

(* ------------------------------------------------------------------ *)
(* Arithmetic helpers                                                  *)
(* ------------------------------------------------------------------ *)

let mask_w (w : Reg.width) v =
  match w with Reg.W64 -> v | Reg.W32 -> Int64.logand v mask32

let sext32 v =
  Int64.shift_right (Int64.shift_left v 32) 32

let sign_bit (w : Reg.width) v =
  match w with
  | Reg.W64 -> Int64.compare v 0L < 0
  | Reg.W32 -> Int64.logand v 0x80000000L <> 0L

let extend_value (e : Insn.extend) (v : int64) : int64 =
  match e with
  | Insn.Uxtb -> Int64.logand v 0xFFL
  | Insn.Uxth -> Int64.logand v 0xFFFFL
  | Insn.Uxtw -> Int64.logand v mask32
  | Insn.Uxtx -> v
  | Insn.Sxtb -> Int64.shift_right (Int64.shift_left v 56) 56
  | Insn.Sxth -> Int64.shift_right (Int64.shift_left v 48) 48
  | Insn.Sxtw -> sext32 v
  | Insn.Sxtx -> v

let shift_value (w : Reg.width) (k : Insn.shift) (v : int64) (a : int) : int64 =
  let bits = match w with Reg.W64 -> 64 | Reg.W32 -> 32 in
  let a = a mod bits in
  if a = 0 then mask_w w v
  else
    match k with
    | Insn.Lsl -> mask_w w (Int64.shift_left v a)
    | Insn.Lsr -> Int64.shift_right_logical (mask_w w v) a
    | Insn.Asr ->
        let v =
          match w with Reg.W64 -> v | Reg.W32 -> sext32 (mask_w w v)
        in
        mask_w w (Int64.shift_right v a)
    | Insn.Ror ->
        let v = mask_w w v in
        mask_w w
          (Int64.logor
             (Int64.shift_right_logical v a)
             (Int64.shift_left v (bits - a)))

let operand2_value (m : Machine.t) (w : Reg.width) (op2 : Insn.operand2) :
    int64 =
  match op2 with
  | Insn.Imm (v, sh) -> Int64.shift_left (Int64.of_int v) sh
  | Insn.Sh (r, k, a) -> shift_value w k (get m r) a
  | Insn.Ext (r, e, a) ->
      mask_w w (Int64.shift_left (extend_value e (get m r)) a)

(** Add/sub with NZCV computation at the given width. *)
let arith_flags (m : Machine.t) (w : Reg.width) ~sub (a : int64) (b : int64) :
    int64 =
  let a = mask_w w a and b = mask_w w b in
  let r = if sub then Int64.sub a b else Int64.add a b in
  let r_masked = mask_w w r in
  let n = sign_bit w r_masked in
  let z = Int64.equal r_masked 0L in
  let c =
    match (w, sub) with
    | Reg.W64, false -> Int64.unsigned_compare r_masked a < 0
    | Reg.W64, true -> Int64.unsigned_compare a b >= 0
    | Reg.W32, false -> Int64.unsigned_compare r 0xFFFFFFFFL > 0
    | Reg.W32, true -> Int64.unsigned_compare a b >= 0
  in
  let sa = sign_bit w a
  and sb = sign_bit w b
  and sr = sign_bit w r_masked in
  let v = if sub then sa <> sb && sr <> sa else sa = sb && sr <> sa in
  set_nzcv m ~n ~z ~c ~v;
  r_masked

let logic_flags (m : Machine.t) (w : Reg.width) (r : int64) =
  set_nzcv m ~n:(sign_bit w r) ~z:(Int64.equal (mask_w w r) 0L) ~c:false
    ~v:false

(* 128-bit multiply high half. *)
let mulh ~signed (a : int64) (b : int64) : int64 =
  let open Int64 in
  let mask = 0xFFFFFFFFL in
  let alo = logand a mask and ahi = shift_right_logical a 32 in
  let blo = logand b mask and bhi = shift_right_logical b 32 in
  (* unsigned 128-bit product via 32x32 partials *)
  let ll = mul alo blo in
  let lh = mul alo bhi in
  let hl = mul ahi blo in
  let hh = mul ahi bhi in
  let mid = add (add (shift_right_logical ll 32) (logand lh mask)) (logand hl mask) in
  let uhi =
    add (add hh (shift_right_logical lh 32))
      (add (shift_right_logical hl 32) (shift_right_logical mid 32))
  in
  if not signed then uhi
  else
    (* signed correction: if a < 0 subtract b from high, if b < 0
       subtract a *)
    let uhi = if compare a 0L < 0 then sub uhi b else uhi in
    if compare b 0L < 0 then sub uhi a else uhi

let bitfield_result (w : Reg.width) (op : Insn.bf_op) ~(dst_old : int64)
    ~(src : int64) ~(immr : int) ~(imms : int) : int64 =
  let bits = match w with Reg.W64 -> 64 | Reg.W32 -> 32 in
  let mask n = if n >= 64 then -1L else Int64.sub (Int64.shift_left 1L n) 1L in
  let src = mask_w w src in
  let result =
    if imms >= immr then begin
      (* extract field src[imms:immr] at bit 0 *)
      let width = imms - immr + 1 in
      let fld = Int64.logand (Int64.shift_right_logical src immr) (mask width) in
      match op with
      | Insn.UBFM -> fld
      | Insn.SBFM ->
          let sh = 64 - width in
          Int64.shift_right (Int64.shift_left fld sh) sh
      | Insn.BFM ->
          Int64.logor
            (Int64.logand dst_old (Int64.lognot (mask width)))
            fld
    end
    else begin
      (* insert field src[imms:0] at bit (bits - immr) *)
      let width = imms + 1 in
      let lsb = bits - immr in
      let fld = Int64.logand src (mask width) in
      match op with
      | Insn.UBFM -> Int64.shift_left fld lsb
      | Insn.SBFM ->
          let sh = 64 - width in
          Int64.shift_left (Int64.shift_right (Int64.shift_left fld sh) sh) lsb
      | Insn.BFM ->
          let hole = Int64.shift_left (mask width) lsb in
          Int64.logor
            (Int64.logand dst_old (Int64.lognot hole))
            (Int64.shift_left fld lsb)
    end
  in
  mask_w w result

let clz_value (w : Reg.width) (v : int64) =
  let bits = match w with Reg.W64 -> 64 | Reg.W32 -> 32 in
  let rec go i =
    if i < 0 then bits
    else if Int64.logand (Int64.shift_right_logical v i) 1L = 1L then
      bits - 1 - i
    else go (i - 1)
  in
  go (bits - 1)

let cls_value (w : Reg.width) (v : int64) =
  let bits = match w with Reg.W64 -> 64 | Reg.W32 -> 32 in
  let sign = Int64.logand (Int64.shift_right_logical v (bits - 1)) 1L in
  let rec go i acc =
    if i < 0 then acc
    else if Int64.logand (Int64.shift_right_logical v i) 1L = sign then
      go (i - 1) (acc + 1)
    else acc
  in
  go (bits - 2) 0

let rbit_value (w : Reg.width) (v : int64) =
  let bits = match w with Reg.W64 -> 64 | Reg.W32 -> 32 in
  let r = ref 0L in
  for i = 0 to bits - 1 do
    if Int64.logand (Int64.shift_right_logical v i) 1L = 1L then
      r := Int64.logor !r (Int64.shift_left 1L (bits - 1 - i))
  done;
  !r

let rev_value (w : Reg.width) (group : int) (v : int64) =
  let bits = match w with Reg.W64 -> 64 | Reg.W32 -> 32 in
  let nbytes = bits / 8 in
  let out = ref 0L in
  let gbytes = group in
  for g = 0 to (nbytes / gbytes) - 1 do
    for b = 0 to gbytes - 1 do
      let src_byte = (g * gbytes) + b in
      let dst_byte = (g * gbytes) + (gbytes - 1 - b) in
      let byte =
        Int64.logand (Int64.shift_right_logical v (8 * src_byte)) 0xFFL
      in
      out := Int64.logor !out (Int64.shift_left byte (8 * dst_byte))
    done
  done;
  !out

(* ------------------------------------------------------------------ *)
(* Addressing                                                          *)
(* ------------------------------------------------------------------ *)

(** Effective address of an addressing mode.  Base-register writeback
    (pre/post-index) is applied separately by {!writeback}, so the pair
    never materializes as an allocated [(addr, closure)] value.

    The [\[x21, wN, uxtw\]] guarded form gets its own arm: when the
    flight recorder is live it audits whether the [uxtw] clamp changed
    the access.  A well-formed index is either a sandbox-relative
    offset (upper 32 bits zero) or a full in-sandbox pointer (upper 32
    bits equal to the base's); anything else is an address the guard
    silently pulled back into the sandbox (Section 5.2's clamped
    escape), so it bumps the audit counter and logs the pc.  The
    comparisons are untagged ([Int64.to_int] then [lsr]), so the audit
    allocates nothing; with the recorder off it is one [None] check. *)
let[@inline] addr_of (m : Machine.t) (a : Insn.addr) : int64 =
  match a with
  | Insn.Imm_off (b, i) | Insn.Pre (b, i) ->
      Int64.add (get m b) (Int64.of_int i)
  | Insn.Post (b, _) -> get m b
  | Insn.Reg_off (Reg.R (Reg.W64, 21), Reg.R (_, n), Insn.Uxtw, amt) ->
      let base = Array.unsafe_get m.regs 21 in
      let raw = Array.unsafe_get m.regs n in
      (match m.flight with
      | None -> ()
      | Some f ->
          let hi = Int64.to_int raw lsr 32 in
          if hi <> 0 && hi <> Int64.to_int base lsr 32 then
            Lfi_telemetry.Flight.clamp f (Int64.to_int m.pc) (Int64.to_int raw));
      Int64.add base (Int64.shift_left (Int64.logand raw mask32) amt)
  | Insn.Reg_off (b, r, e, amt) ->
      Int64.add (get m b) (Int64.shift_left (extend_value e (get m r)) amt)

(** Apply the base-register update of [a], given the effective address
    previously computed by {!addr_of}. *)
let[@inline] writeback (m : Machine.t) (a : Insn.addr) (addr : int64) =
  match a with
  | Insn.Imm_off _ | Insn.Reg_off _ -> ()
  | Insn.Pre (b, _) -> set m b addr
  | Insn.Post (b, i) -> set m b (Int64.add addr (Int64.of_int i))

let ld_result (sz : Insn.mem_size) ~signed (w : Reg.width) (raw : int64) :
    int64 =
  if not signed then raw
  else
    let shift = 64 - (8 * Insn.mem_bytes sz) in
    let v = Int64.shift_right (Int64.shift_left raw shift) shift in
    mask_w w v

(* ------------------------------------------------------------------ *)
(* Floating point                                                      *)
(* ------------------------------------------------------------------ *)

let round_to_size (f : Reg.Fp.t) (v : float) : float =
  match f.Reg.Fp.size with
  | Reg.Fp.S -> Int32.float_of_bits (Int32.bits_of_float v)
  | Reg.Fp.D | Reg.Fp.Q -> v

let fcvtzs_value ~signed (w : Reg.width) (v : float) : int64 =
  if Float.is_nan v then 0L
  else
    match (w, signed) with
    | Reg.W64, true ->
        if v >= 9.2233720368547758e18 then Int64.max_int
        else if v <= -9.2233720368547758e18 then Int64.min_int
        else Int64.of_float v
    | Reg.W32, true ->
        if v >= 2147483647.0 then 0x7FFFFFFFL
        else if v <= -2147483648.0 then 0x80000000L
        else Int64.logand (Int64.of_float v) mask32
    | Reg.W64, false ->
        if v <= 0.0 then 0L
        else if v >= 1.8446744073709552e19 then -1L
        else if v >= 9.2233720368547758e18 then
          Int64.add (Int64.of_float (v -. 9.2233720368547758e18)) Int64.min_int
        else Int64.of_float v
    | Reg.W32, false ->
        if v <= 0.0 then 0L
        else if v >= 4294967295.0 then 0xFFFFFFFFL
        else Int64.of_float v

let ucvtf_value (v : int64) : float =
  if Int64.compare v 0L >= 0 then Int64.to_float v
  else Int64.to_float v +. 1.8446744073709552e19

(* ------------------------------------------------------------------ *)
(* Step                                                                *)
(* ------------------------------------------------------------------ *)

(** The instruction class the metrics mix counts [i] under — the one
    classifier both dispatch modes use.  A guard is the rewriter's
    x21-based add — either the fundamental [add xD, x21, wN, uxtw] or
    the sp re-anchor [add sp, x21, x22, uxtx]. *)
let insn_class (i : Insn.t) : int =
  let open Lfi_telemetry.Metrics in
  match i with
  | Insn.Alu
      { op = Insn.ADD; flags = false; src = Reg.R (Reg.W64, 21);
        op2 = Insn.Ext (_, (Insn.Uxtw | Insn.Uxtx), 0); _ } ->
      cls_guard
  | Insn.Ldr _ | Insn.Ldp _ | Insn.Fldr _ | Insn.Fldp _ | Insn.Ldxr _
  | Insn.Ldar _ ->
      cls_load
  | Insn.Str _ | Insn.Stp _ | Insn.Fstr _ | Insn.Fstp _ | Insn.Stxr _
  | Insn.Stlr _ ->
      cls_store
  | Insn.B _ | Insn.Bl _ | Insn.Bcond _ | Insn.Cbz _ | Insn.Tbz _
  | Insn.Br _ | Insn.Blr _ | Insn.Ret _ ->
      cls_branch
  | _ -> cls_other

(** Telemetry: decode-cache outcome plus the instruction-class mix,
    counted in one pass so the metrics-off fetch path pays a single
    [None] check. *)
let count_fetch (t : Lfi_telemetry.Metrics.emu) ~(hit : bool) (i : Insn.t) =
  let open Lfi_telemetry.Metrics in
  if hit then t.decode_hits <- t.decode_hits + 1
  else t.decode_misses <- t.decode_misses + 1;
  count_class t (insn_class i)

(** Fetch (through the per-page decode cache) the instruction at the
    current pc and charge its throughput cost.  The alignment check
    runs before the cache probe so a misaligned pc can never alias a
    cached aligned slot; on a hit the charge is an unboxed load from
    the page's cost array — no [Cost_model.cost] dispatch per step. *)
let fetch_insn (m : Machine.t) : Insn.t =
  let pc = m.pc in
  if Int64.logand pc 3L <> 0L then
    raise (Memory.Fault { Memory.addr = pc; access = Memory.Fetch;
                          reason = "misaligned pc" });
  let pci = Int64.to_int pc in
  let pidx = pci lsr Memory.page_bits in
  let slot = (pci land (Memory.page_size - 1)) lsr 2 in
  if m.dc_idx <> pidx then Machine.decode_page m pidx;
  let i = Array.unsafe_get m.dc_arr slot in
  if i != Machine.undecoded then begin
    let c = Array.unsafe_get m.dc_cost slot in
    add_cycles m c;
    (match m.metrics with
    | None -> ()
    | Some t ->
        (* a slot lowered into a block but not yet retired still owes
           its decode miss *)
        let fresh = Bytes.unsafe_get m.dc_fresh slot <> '\000' in
        if fresh then Bytes.unsafe_set m.dc_fresh slot '\000';
        count_fetch t ~hit:(not fresh) i);
    (match m.overhead with
    | None -> ()
    | Some a -> Lfi_telemetry.Overhead.charge a pci c);
    i
  end
  else begin
    let word = Memory.fetch m.mem pc in
    let i = Decode.decode word in
    let c = Cost_model.cost m.uarch i in
    Array.unsafe_set m.dc_arr slot i;
    Array.unsafe_set m.dc_cost slot c;
    add_cycles m c;
    (match m.metrics with None -> () | Some t -> count_fetch t ~hit:false i);
    (match m.overhead with
    | None -> ()
    | Some a -> Lfi_telemetry.Overhead.charge a pci c);
    i
  end

let target_offset = function
  | Insn.Off n -> Int64.of_int n
  | Insn.Sym s -> failwith ("unresolved symbol at execution: " ^ s)

let[@inline] branch_to (m : Machine.t) t =
  m.pc <- Int64.add m.pc (target_offset t)

(** Escape-oracle check on the (already updated) [m.pc] of a taken
    branch; [from] is the branch's own pc (DESIGN.md §5d).  Legal
    targets are the sandbox branch window and the runtime-call host
    entries.  [Int64.unsigned_compare] keeps the windows honest even
    for targets with the top bit set.  Recording never stops execution:
    the mutant keeps running (and may fault on an unmapped page), the
    fuzzer reads the records afterwards. *)
let[@inline] note_branch_oracle (m : Machine.t) (from : int64) =
  match m.escape_oracle with
  | None -> ()
  | Some o ->
      let t = m.pc in
      let in_window lo hi =
        Int64.unsigned_compare t lo >= 0 && Int64.unsigned_compare t hi < 0
      in
      if
        not
          (in_window o.Machine.o_branch_lo o.Machine.o_branch_hi
          || in_window o.Machine.o_host_lo o.Machine.o_host_hi)
      then Machine.record_escape o ~pc:from ~addr:t Machine.Ebranch

(** Log a taken control transfer into the flight recorder: [from] is
    the branch's own pc, the argument is the (already updated) target.
    One predictable [None] branch when the recorder is off. *)
let[@inline] note_jump (m : Machine.t) (kind : int) (from : int64) =
  note_branch_oracle m from;
  match m.flight with
  | None -> ()
  | Some f ->
      Lfi_telemetry.Flight.record f kind (Int64.to_int from)
        (Int64.to_int m.pc)

(** Escape-oracle check on a data access: the whole [size]-byte access
    must land inside the oracle's [o_lo, o_hi) data window.  At the
    call sites below [m.pc] still points at the accessing
    instruction. *)
let[@inline] oracle_data (m : Machine.t) (addr : int64) (size : int)
    (kind : Machine.escape_kind) =
  match m.escape_oracle with
  | None -> ()
  | Some o ->
      if
        Int64.unsigned_compare addr o.Machine.o_lo < 0
        || Int64.unsigned_compare
             (Int64.add addr (Int64.of_int size))
             o.Machine.o_hi
           > 0
      then Machine.record_escape o ~pc:m.pc ~addr kind

let[@inline] mem_read (m : Machine.t) (addr : int64) (size : int) : int64 =
  oracle_data m addr size Machine.Eload;
  charge_tlb m addr;
  Memory.read m.mem addr size

let[@inline] mem_write (m : Machine.t) (addr : int64) (size : int) (v : int64)
    =
  oracle_data m addr size Machine.Estore;
  charge_tlb m addr;
  Memory.write m.mem addr size v

let host_region_start_i = Int64.to_int host_region_start

(** Execute one already-fetched instruction at [m.pc]: the semantic
    core shared by the step path (below) and the superblock engine's
    generic fallback.  The caller has already charged the instruction's
    cost and counted it; this updates register/memory/flag state and
    [m.pc], letting {!Memory.Fault} escape.  Returns [None] for normal
    completion or [Some event]. *)
let exec_insn (m : Machine.t) (insn : Insn.t) : event option =
      let next = Int64.add m.pc 4L in
      match insn with
      | Insn.Alu { op; flags; dst; src; op2 } ->
          let w = Reg.width dst in
          let a = mask_w w (get m src) in
          let b = operand2_value m w op2 in
          let r =
            match (op, flags) with
            | Insn.ADD, false -> mask_w w (Int64.add a b)
            | Insn.SUB, false -> mask_w w (Int64.sub a b)
            | Insn.ADD, true -> arith_flags m w ~sub:false a b
            | Insn.SUB, true -> arith_flags m w ~sub:true a b
            | Insn.AND, false -> Int64.logand a b
            | Insn.AND, true ->
                let r = Int64.logand a b in
                logic_flags m w r;
                r
            | Insn.ORR, _ -> Int64.logor a b
            | Insn.EOR, _ -> Int64.logxor a b
            | Insn.BIC, false -> Int64.logand a (Int64.lognot b)
            | Insn.BIC, true ->
                let r = Int64.logand a (Int64.lognot b) in
                logic_flags m w r;
                r
            | Insn.ORN, _ -> Int64.logor a (Int64.lognot b)
            | Insn.EON, _ -> Int64.logxor a (Int64.lognot b)
          in
          set m dst (mask_w w r);
          m.pc <- next;
          None
      | Insn.Shiftv { op; dst; src; amount } ->
          let w = Reg.width dst in
          let bits = match w with Reg.W64 -> 64 | Reg.W32 -> 32 in
          let a = Int64.to_int (Int64.logand (get m amount) (Int64.of_int (bits - 1))) in
          set m dst (shift_value w op (get m src) a);
          m.pc <- next;
          None
      | Insn.Mov { op; dst; imm; hw } ->
          let w = Reg.width dst in
          let v = Int64.shift_left (Int64.of_int imm) (hw * 16) in
          let r =
            match op with
            | Insn.MOVZ -> v
            | Insn.MOVN -> mask_w w (Int64.lognot v)
            | Insn.MOVK ->
                let hole = Int64.shift_left 0xFFFFL (hw * 16) in
                Int64.logor (Int64.logand (get m dst) (Int64.lognot hole)) v
          in
          set m dst (mask_w w r);
          m.pc <- next;
          None
      | Insn.Bitfield { op; dst; src; immr; imms } ->
          let w = Reg.width dst in
          set m dst
            (bitfield_result w op ~dst_old:(get m dst) ~src:(get m src) ~immr
               ~imms);
          m.pc <- next;
          None
      | Insn.Extr { dst; src1; src2; lsb } ->
          let w = Reg.width dst in
          let bits = match w with Reg.W64 -> 64 | Reg.W32 -> 32 in
          let hi = mask_w w (get m src1) and lo = mask_w w (get m src2) in
          let r =
            if lsb = 0 then lo
            else
              Int64.logor
                (Int64.shift_right_logical lo lsb)
                (Int64.shift_left hi (bits - lsb))
          in
          set m dst (mask_w w r);
          m.pc <- next;
          None
      | Insn.Madd { sub; dst; src1; src2; acc } ->
          let w = Reg.width dst in
          let p = Int64.mul (get m src1) (get m src2) in
          let r =
            if sub then Int64.sub (get m acc) p else Int64.add (get m acc) p
          in
          set m dst (mask_w w r);
          m.pc <- next;
          None
      | Insn.Smulh { signed; dst; src1; src2 } ->
          set m dst (mulh ~signed (get m src1) (get m src2));
          m.pc <- next;
          None
      | Insn.Maddl { signed; sub; dst; src1; src2; acc } ->
          let widen v =
            if signed then sext32 (Int64.logand v mask32)
            else Int64.logand v mask32
          in
          let p = Int64.mul (widen (get m src1)) (widen (get m src2)) in
          let r =
            if sub then Int64.sub (get m acc) p else Int64.add (get m acc) p
          in
          set m dst r;
          m.pc <- next;
          None
      | Insn.Ccmp { cmn; src; op2; nzcv; cond } ->
          (if cond_holds m cond then begin
             let w = Reg.width src in
             let b =
               match op2 with
               | Insn.CReg r -> get m r
               | Insn.CImm v -> Int64.of_int v
             in
             ignore (arith_flags m w ~sub:(not cmn) (get m src) b)
           end
           else
             set_nzcv m
               ~n:(nzcv land 8 <> 0)
               ~z:(nzcv land 4 <> 0)
               ~c:(nzcv land 2 <> 0)
               ~v:(nzcv land 1 <> 0));
          m.pc <- next;
          None
      | Insn.Div { signed; dst; src1; src2 } ->
          let w = Reg.width dst in
          let a = get m src1 and b = get m src2 in
          let a, b =
            match w with
            | Reg.W64 -> (a, b)
            | Reg.W32 ->
                if signed then (sext32 a, sext32 b)
                else (mask_w w a, mask_w w b)
          in
          let r =
            if Int64.equal b 0L then 0L
            else if signed then
              if Int64.equal a Int64.min_int && Int64.equal b (-1L) then
                Int64.min_int
              else Int64.div a b
            else Int64.unsigned_div a b
          in
          set m dst (mask_w w r);
          m.pc <- next;
          None
      | Insn.Csel { op; dst; src1; src2; cond } ->
          let w = Reg.width dst in
          let r =
            if cond_holds m cond then mask_w w (get m src1)
            else
              let b = mask_w w (get m src2) in
              match op with
              | Insn.CSEL -> b
              | Insn.CSINC -> mask_w w (Int64.add b 1L)
              | Insn.CSINV -> mask_w w (Int64.lognot b)
              | Insn.CSNEG -> mask_w w (Int64.neg b)
          in
          set m dst r;
          m.pc <- next;
          None
      | Insn.Cls { count_zero; dst; src } ->
          let w = Reg.width dst in
          let v = mask_w w (get m src) in
          set m dst
            (Int64.of_int (if count_zero then clz_value w v else cls_value w v));
          m.pc <- next;
          None
      | Insn.Rbit { dst; src } ->
          let w = Reg.width dst in
          set m dst (rbit_value w (mask_w w (get m src)));
          m.pc <- next;
          None
      | Insn.Rev { bytes; dst; src } ->
          let w = Reg.width dst in
          set m dst (mask_w w (rev_value w bytes (mask_w w (get m src))));
          m.pc <- next;
          None
      | Insn.Adr { page; dst; target } ->
          let off = target_offset target in
          let base =
            if page then Int64.logand m.pc (Int64.lognot 0xFFFL) else m.pc
          in
          set m dst (Int64.add base off);
          m.pc <- next;
          None
      | Insn.Ldr { sz; signed; dst; addr } ->
          let a = addr_of m addr in
          let raw = mem_read m a (Insn.mem_bytes sz) in
          writeback m addr a;
          set m dst (ld_result sz ~signed (Reg.width dst) raw);
          m.pc <- next;
          None
      | Insn.Str { sz; src; addr } ->
          let a = addr_of m addr in
          mem_write m a (Insn.mem_bytes sz) (get m src);
          writeback m addr a;
          m.pc <- next;
          None
      | Insn.Ldp { w; r1; r2; addr } ->
          let size = match w with Reg.W64 -> 8 | Reg.W32 -> 4 in
          let a = addr_of m addr in
          let v1 = mem_read m a size in
          let v2 = mem_read m (Int64.add a (Int64.of_int size)) size in
          writeback m addr a;
          set m r1 v1;
          set m r2 v2;
          m.pc <- next;
          None
      | Insn.Stp { w; r1; r2; addr } ->
          let size = match w with Reg.W64 -> 8 | Reg.W32 -> 4 in
          let a = addr_of m addr in
          mem_write m a size (get m r1);
          mem_write m (Int64.add a (Int64.of_int size)) size (get m r2);
          writeback m addr a;
          m.pc <- next;
          None
      | Insn.Fldr { dst; addr } ->
          let a = addr_of m addr in
          let bytes = Reg.Fp.bytes dst in
          if bytes = 16 then begin
            let lo = mem_read m a 8 and hi = mem_read m (Int64.add a 8L) 8 in
            m.vlo.(dst.Reg.Fp.n) <- lo;
            m.vhi.(dst.Reg.Fp.n) <- hi
          end
          else begin
            let v = mem_read m a bytes in
            m.vlo.(dst.Reg.Fp.n) <- v;
            m.vhi.(dst.Reg.Fp.n) <- 0L
          end;
          writeback m addr a;
          m.pc <- next;
          None
      | Insn.Fstr { src; addr } ->
          let a = addr_of m addr in
          let bytes = Reg.Fp.bytes src in
          if bytes = 16 then begin
            mem_write m a 8 m.vlo.(src.Reg.Fp.n);
            mem_write m (Int64.add a 8L) 8 m.vhi.(src.Reg.Fp.n)
          end
          else
            mem_write m a bytes
              (if bytes = 4 then Int64.logand m.vlo.(src.Reg.Fp.n) mask32
               else m.vlo.(src.Reg.Fp.n));
          writeback m addr a;
          m.pc <- next;
          None
      | Insn.Fldp { r1; r2; addr } ->
          let bytes = Reg.Fp.bytes r1 in
          let a = addr_of m addr in
          let rd (f : Reg.Fp.t) a =
            if bytes = 16 then begin
              m.vlo.(f.Reg.Fp.n) <- mem_read m a 8;
              m.vhi.(f.Reg.Fp.n) <- mem_read m (Int64.add a 8L) 8
            end
            else begin
              m.vlo.(f.Reg.Fp.n) <- mem_read m a bytes;
              m.vhi.(f.Reg.Fp.n) <- 0L
            end
          in
          rd r1 a;
          rd r2 (Int64.add a (Int64.of_int bytes));
          writeback m addr a;
          m.pc <- next;
          None
      | Insn.Fstp { r1; r2; addr } ->
          let bytes = Reg.Fp.bytes r1 in
          let a = addr_of m addr in
          let wr (f : Reg.Fp.t) a =
            if bytes = 16 then begin
              mem_write m a 8 m.vlo.(f.Reg.Fp.n);
              mem_write m (Int64.add a 8L) 8 m.vhi.(f.Reg.Fp.n)
            end
            else
              mem_write m a bytes
                (if bytes = 4 then Int64.logand m.vlo.(f.Reg.Fp.n) mask32
                 else m.vlo.(f.Reg.Fp.n))
          in
          wr r1 a;
          wr r2 (Int64.add a (Int64.of_int bytes));
          writeback m addr a;
          m.pc <- next;
          None
      | Insn.Ldxr { sz; dst; base } ->
          let a = get m base in
          let v = mem_read m a (Insn.mem_bytes sz) in
          m.exclusive <- Some a;
          set m dst v;
          m.pc <- next;
          None
      | Insn.Stxr { sz; status; src; base } ->
          let a = get m base in
          (match m.exclusive with
          | Some e when Int64.equal e a ->
              mem_write m a (Insn.mem_bytes sz) (get m src);
              set m status 0L
          | _ -> set m status 1L);
          m.exclusive <- None;
          m.pc <- next;
          None
      | Insn.Ldar { sz; dst; base } ->
          set m dst (mem_read m (get m base) (Insn.mem_bytes sz));
          m.pc <- next;
          None
      | Insn.Stlr { sz; src; base } ->
          mem_write m (get m base) (Insn.mem_bytes sz) (get m src);
          m.pc <- next;
          None
      | Insn.B t ->
          let from = m.pc in
          branch_to m t;
          note_jump m Lfi_telemetry.Flight.k_branch from;
          None
      | Insn.Bl t ->
          let from = m.pc in
          m.regs.(30) <- next;
          branch_to m t;
          note_jump m Lfi_telemetry.Flight.k_call from;
          None
      | Insn.Bcond (c, t) ->
          if cond_holds m c then begin
            let from = m.pc in
            branch_to m t;
            note_jump m Lfi_telemetry.Flight.k_branch from
          end
          else m.pc <- next;
          None
      | Insn.Cbz { nz; reg; target } ->
          let v = mask_w (Reg.width reg) (get m reg) in
          let zero = Int64.equal v 0L in
          if (zero && not nz) || ((not zero) && nz) then begin
            let from = m.pc in
            branch_to m target;
            note_jump m Lfi_telemetry.Flight.k_branch from
          end
          else m.pc <- next;
          None
      | Insn.Tbz { nz; reg; bit; target } ->
          let b =
            Int64.logand (Int64.shift_right_logical (get m reg) bit) 1L
          in
          let taken = if nz then Int64.equal b 1L else Int64.equal b 0L in
          if taken then begin
            let from = m.pc in
            branch_to m target;
            note_jump m Lfi_telemetry.Flight.k_branch from
          end
          else m.pc <- next;
          None
      | Insn.Br r ->
          let from = m.pc in
          m.pc <- get m r;
          note_jump m Lfi_telemetry.Flight.k_branch from;
          None
      | Insn.Blr r ->
          let from = m.pc in
          let target = get m r in
          m.regs.(30) <- next;
          m.pc <- target;
          note_jump m Lfi_telemetry.Flight.k_call from;
          None
      | Insn.Ret r ->
          let from = m.pc in
          m.pc <- get m r;
          note_jump m Lfi_telemetry.Flight.k_ret from;
          None
      | Insn.Fop2 { op; dst; src1; src2 } ->
          let a = get_float m src1 and b = get_float m src2 in
          let r =
            match op with
            | Insn.FADD -> a +. b
            | Insn.FSUB -> a -. b
            | Insn.FMUL -> a *. b
            | Insn.FDIV -> a /. b
            | Insn.FMIN -> Float.min a b
            | Insn.FMAX -> Float.max a b
          in
          set_float m dst (round_to_size dst r);
          m.pc <- next;
          None
      | Insn.Fop1 { op; dst; src } ->
          let a = get_float m src in
          let r =
            match op with
            | Insn.FNEG -> -.a
            | Insn.FABS -> Float.abs a
            | Insn.FSQRT -> Float.sqrt a
            | Insn.FMOV -> a
          in
          set_float m dst (round_to_size dst r);
          m.pc <- next;
          None
      | Insn.Fmadd { sub; dst; src1; src2; acc } ->
          let a = get_float m src1
          and b = get_float m src2
          and c = get_float m acc in
          let r = if sub then c -. (a *. b) else c +. (a *. b) in
          set_float m dst (round_to_size dst r);
          m.pc <- next;
          None
      | Insn.Fcmp { src1; src2 } ->
          let a = get_float m src1 in
          let b = match src2 with Some r -> get_float m r | None -> 0.0 in
          if Float.is_nan a || Float.is_nan b then
            set_nzcv m ~n:false ~z:false ~c:true ~v:true
          else if a < b then set_nzcv m ~n:true ~z:false ~c:false ~v:false
          else if a = b then set_nzcv m ~n:false ~z:true ~c:true ~v:false
          else set_nzcv m ~n:false ~z:false ~c:true ~v:false;
          m.pc <- next;
          None
      | Insn.Fcvt { dst; src } ->
          set_float m dst (round_to_size dst (get_float m src));
          m.pc <- next;
          None
      | Insn.Scvtf { signed; dst; src } ->
          let v = get m src in
          let v =
            match Reg.width src with
            | Reg.W64 -> v
            | Reg.W32 -> if signed then sext32 v else Int64.logand v mask32
          in
          let f = if signed then Int64.to_float v else ucvtf_value v in
          set_float m dst (round_to_size dst f);
          m.pc <- next;
          None
      | Insn.Fcvtzs { signed; dst; src } ->
          set m dst (fcvtzs_value ~signed (Reg.width dst) (get_float m src));
          m.pc <- next;
          None
      | Insn.Fmov_to_fp { dst; src } ->
          (match dst.Reg.Fp.size with
          | Reg.Fp.D | Reg.Fp.Q -> m.vlo.(dst.Reg.Fp.n) <- get m src
          | Reg.Fp.S ->
              m.vlo.(dst.Reg.Fp.n) <- Int64.logand (get m src) mask32);
          m.pc <- next;
          None
      | Insn.Fmov_from_fp { dst; src } ->
          let v = m.vlo.(src.Reg.Fp.n) in
          set m dst
            (match src.Reg.Fp.size with
            | Reg.Fp.D | Reg.Fp.Q -> v
            | Reg.Fp.S -> Int64.logand v mask32);
          m.pc <- next;
          None
      | Insn.Nop | Insn.Dmb ->
          m.pc <- next;
          None
      | Insn.Mrs { dst; _ } ->
          set m dst 0L;
          m.pc <- next;
          None
      | Insn.Msr _ ->
          m.pc <- next;
          None
      | Insn.Svc n ->
          m.pc <- next;
          Some (Trap (Svc_trap n))
      | Insn.Udf _ -> Some (Trap (Undefined m.pc))

(** One instruction, letting {!Memory.Fault} escape — the quantum loop
    in {!run} installs a single handler for the whole quantum instead
    of one per step.  Returns [None] for normal completion (pc already
    updated) or [Some event]. *)
let step_raw (m : Machine.t) : event option =
  (* untagged compare: addresses are < 2^62, so [Int64.to_int] is exact
     (a pc with the top bits set goes to the fetch path and faults as
     unmapped, which is just as terminal) *)
  if Int64.to_int m.pc >= host_region_start_i then
    Some (Runtime_entry m.pc)
  else begin
    let insn = fetch_insn m in
    m.insns <- m.insns + 1;
    (match m.profile with
    | None -> ()
    | Some p ->
        if m.insns land p.Lfi_telemetry.Profile.mask = 0 then
          Lfi_telemetry.Profile.sample p (Int64.to_int m.pc));
    exec_insn m insn
  end

let count_fault (m : Machine.t) =
  match m.metrics with
  | None -> ()
  | Some t -> t.Lfi_telemetry.Metrics.faults <- t.Lfi_telemetry.Metrics.faults + 1

(** Execute exactly one instruction.  Returns [None] for normal
    completion (pc already updated) or [Some event]. *)
let step (m : Machine.t) : event option =
  try step_raw m
  with Memory.Fault f ->
    count_fault m;
    Some (Trap (Mem_fault f))

(** Run until an event occurs or [quantum] instructions have executed. *)
let run (m : Machine.t) ~(quantum : int) : event =
  let rec go n =
    if n <= 0 then Quantum_expired
    else match step_raw m with None -> go (n - 1) | Some e -> e
  in
  try go quantum
  with Memory.Fault f ->
    count_fault m;
    Trap (Mem_fault f)
