(** Superblock engine: lowering, block cache, and threaded dispatch.

    The single-step path in {!Interp} pays a fixed per-instruction tax
    — decode-cache probe, host-region check, boxed pc writes, operand
    matches — that dominates once the decode cache hits every time.
    This module removes it structurally: straight-line runs of decoded
    instructions are {e lowered} once into pre-resolved closures
    (register operands resolved to array indices, immediates
    pre-extended and pre-boxed, guard checks specialized into
    monomorphic fast paths), grouped into blocks keyed by entry pc, and
    executed back-to-back with a single bounds/translation check per
    block.  Blocks chain through [b_succ0]/[b_succ1], so a hot loop
    runs block-to-block without touching the hash table at all.

    Observational equivalence with {!Interp} is the design invariant
    (the golden differential suite runs both modes and demands
    bit-identical cycles):

    - costs are charged {e per instruction, in program order} from
      [b_costs] — never pre-summed, because float addition is not
      associative and TLB-walk charges interleave with them;
    - [m.insns] advances by the block's retired count at block
      boundaries, and a {!Memory.Fault} mid-block repairs both the
      count and [m.pc] from [m.blk_i] before re-raising;
    - flight-recorder events (taken branches, guard-clamp audits) are
      replicated inside the lowered closures with build-time pcs;
    - a block invalidated by its own store (self-modifying code on a
      W+X page) stops after the offending instruction, exactly where
      the step path would re-fetch;
    - observers whose counts are static per block are charged per
      block: {!Machine.metrics} (instruction mix, decode hits and
      misses) and {!Machine.overhead} (per-site cycles) read the
      {!tally} attached to a block while they are armed, after a full
      execution or for the retired prefix of a faulting or
      self-invalidated one.  Decode misses are
      owed by a slot until it first retires, and site cycles are added
      per executed site instruction in program order, so both counts
      equal the step path's.  With neither armed the cost is one
      predictable branch per block;
    - observers that need the pc of every instruction as it runs
      ({!Machine.profile}, {!Machine.escape_oracle}) never reach this
      module — {!Exec.run} deopts to the step loop first. *)

open Lfi_arm64
open Machine

let host_region_start_i = Interp.host_region_start_i

(* ------------------------------------------------------------------ *)
(* Lowering helpers                                                    *)
(* ------------------------------------------------------------------ *)

(** Guard-clamp audit for the [\[x21, wN, uxtw\]] addressing form,
    with the instruction's pc captured at build time (the dispatch
    loop does not maintain [m.pc] per instruction). *)
let[@inline] clamp_audit (m : Machine.t) (pci : int) (base : int64)
    (raw : int64) =
  match m.flight with
  | None -> ()
  | Some f ->
      let hi = Int64.to_int raw lsr 32 in
      if hi <> 0 && hi <> Int64.to_int base lsr 32 then
        Lfi_telemetry.Flight.clamp f pci (Int64.to_int raw)

(** Effective address inside a lowered closure: the guarded form runs
    the clamp audit against the captured pc; every other mode is
    pc-independent and delegates to {!Interp.addr_of}. *)
let[@inline] baddr_of (m : Machine.t) (pci : int) (a : Insn.addr) : int64 =
  match a with
  | Insn.Reg_off (Reg.R (Reg.W64, 21), Reg.R (_, n), Insn.Uxtw, amt) ->
      let base = Array.unsafe_get m.regs 21 in
      let raw = Array.unsafe_get m.regs n in
      clamp_audit m pci base raw;
      Int64.add base (Int64.shift_left (Int64.logand raw mask32) amt)
  | _ -> Interp.addr_of m a

(* Data access without the escape-oracle probe: the oracle forces a
   deopt in Exec.run, so block closures never run with it armed. *)
let[@inline] bread (m : Machine.t) (a : int64) (size : int) : int64 =
  charge_tlb m a;
  Memory.read m.mem a size

let[@inline] bwrite (m : Machine.t) (a : int64) (size : int) (v : int64) =
  charge_tlb m a;
  Memory.write m.mem a size v

(** Pre-resolve an ALU second operand.  Immediates become a captured
    pre-shifted boxed constant; a plain W64 register becomes an
    unchecked array load; the rest keep their exact step-path
    computation. *)
let lower_operand2 (w : Reg.width) (op2 : Insn.operand2) : Machine.t -> int64 =
  match op2 with
  | Insn.Imm (v, sh) ->
      let c = Int64.shift_left (Int64.of_int v) sh in
      fun _ -> c
  | Insn.Sh (Reg.R (Reg.W64, n), _, 0) ->
      (* shift by 0 is the identity at W64 for every shift kind *)
      fun m -> Array.unsafe_get m.regs n
  | Insn.Sh (r, k, a) -> fun m -> Interp.shift_value w k (get m r) a
  | Insn.Ext (r, e, a) ->
      fun m ->
        Interp.mask_w w (Int64.shift_left (Interp.extend_value e (get m r)) a)

(** Semi-generic ALU lowering: the op/flags dispatch and the operand
    shape are resolved at build time, leaving only the arithmetic in
    the closure.  [get]/[set] already apply the width masks the step
    path applies, so results are bit-identical. *)
let lower_alu (op : Insn.alu_op) (flags : bool) (dst : Reg.t) (src : Reg.t)
    (op2 : Insn.operand2) : Machine.t -> unit =
  let w = Reg.width dst in
  let o2 = lower_operand2 w op2 in
  match (op, flags) with
  | Insn.ADD, false -> fun m -> set m dst (Int64.add (get m src) (o2 m))
  | Insn.SUB, false -> fun m -> set m dst (Int64.sub (get m src) (o2 m))
  | Insn.ADD, true ->
      fun m -> set m dst (Interp.arith_flags m w ~sub:false (get m src) (o2 m))
  | Insn.SUB, true ->
      fun m -> set m dst (Interp.arith_flags m w ~sub:true (get m src) (o2 m))
  | Insn.AND, false -> fun m -> set m dst (Int64.logand (get m src) (o2 m))
  | Insn.AND, true ->
      fun m ->
        let r = Int64.logand (get m src) (o2 m) in
        Interp.logic_flags m w r;
        set m dst (Interp.mask_w w r)
  | Insn.ORR, _ -> fun m -> set m dst (Int64.logor (get m src) (o2 m))
  | Insn.EOR, _ -> fun m -> set m dst (Int64.logxor (get m src) (o2 m))
  | Insn.BIC, false ->
      fun m -> set m dst (Int64.logand (get m src) (Int64.lognot (o2 m)))
  | Insn.BIC, true ->
      fun m ->
        let r = Int64.logand (get m src) (Int64.lognot (o2 m)) in
        Interp.logic_flags m w r;
        set m dst (Interp.mask_w w r)
  | Insn.ORN, _ ->
      fun m -> set m dst (Int64.logor (get m src) (Int64.lognot (o2 m)))
  | Insn.EON, _ ->
      fun m -> set m dst (Int64.logxor (get m src) (Int64.lognot (o2 m)))

let ignore_op : Machine.t -> unit = fun _ -> ()

(** Bitfield moves (lsl/lsr/asr-immediate, uxtb/uxth, sxtb/sxth/sxtw,
    bfi/bfxil, …) have every parameter known at build time: precompute
    the field mask and shift amounts so the closure is two or three
    word ops.  Mirrors {!Interp.bitfield_result} bit for bit — in each
    specialized arm the field mask removes every source bit the step
    path's width mask would have removed, so raw register reads are
    safe. *)
let lower_bitfield (op : Insn.bf_op) (dst : Reg.t) (src : Reg.t) (immr : int)
    (imms : int) : Machine.t -> unit =
  let w = Reg.width dst in
  let bits = match w with Reg.W64 -> 64 | Reg.W32 -> 32 in
  let mk n = if n >= 64 then -1L else Int64.sub (Int64.shift_left 1L n) 1L in
  (* decoder invariant; the leak analyses above depend on it *)
  let ok = imms < bits && immr < bits in
  match (op, dst, src) with
  | Insn.UBFM, Reg.R (_, d), Reg.R (_, s) when ok && imms >= immr ->
      (* extract src[imms:immr] at bit 0; imms < bits, so [fmask]
         strips any bits the W32 source mask would have stripped *)
      let fmask = mk (imms - immr + 1) in
      fun m ->
        Array.unsafe_set m.regs d
          (Int64.logand
             (Int64.shift_right_logical (Array.unsafe_get m.regs s) immr)
             fmask)
  | Insn.UBFM, Reg.R (_, d), Reg.R (_, s) when ok ->
      (* insert src[imms:0] at bit (bits - immr); width + lsb <= bits,
         so the shifted field never leaves the destination width and
         no result mask is needed *)
      let fmask = mk (imms + 1) in
      let lsb = bits - immr in
      fun m ->
        Array.unsafe_set m.regs d
          (Int64.shift_left (Int64.logand (Array.unsafe_get m.regs s) fmask)
             lsb)
  | Insn.SBFM, Reg.R (_, d), Reg.R (_, s) when ok && imms >= immr -> (
      let width = imms - immr + 1 in
      let fmask = mk width in
      let sh = 64 - width in
      match w with
      | Reg.W64 ->
          fun m ->
            let fld =
              Int64.logand
                (Int64.shift_right_logical (Array.unsafe_get m.regs s) immr)
                fmask
            in
            Array.unsafe_set m.regs d
              (Int64.shift_right (Int64.shift_left fld sh) sh)
      | Reg.W32 ->
          fun m ->
            let fld =
              Int64.logand
                (Int64.shift_right_logical (Array.unsafe_get m.regs s) immr)
                fmask
            in
            Array.unsafe_set m.regs d
              (Int64.logand mask32
                 (Int64.shift_right (Int64.shift_left fld sh) sh)))
  | Insn.SBFM, Reg.R (_, d), Reg.R (_, s) when ok -> (
      let fmask = mk (imms + 1) in
      let sh = 64 - (imms + 1) in
      let lsb = bits - immr in
      match w with
      | Reg.W64 ->
          fun m ->
            let fld = Int64.logand (Array.unsafe_get m.regs s) fmask in
            Array.unsafe_set m.regs d
              (Int64.shift_left
                 (Int64.shift_right (Int64.shift_left fld sh) sh)
                 lsb)
      | Reg.W32 ->
          fun m ->
            let fld = Int64.logand (Array.unsafe_get m.regs s) fmask in
            Array.unsafe_set m.regs d
              (Int64.logand mask32
                 (Int64.shift_left
                    (Int64.shift_right (Int64.shift_left fld sh) sh)
                    lsb)))
  | _ ->
      (* BFM (reads the old destination), or a ZR/SP operand *)
      fun m ->
        set m dst
          (Interp.bitfield_result w op ~dst_old:(get m dst) ~src:(get m src)
             ~immr ~imms)

(** Lower one straight-line instruction at [pci] into a closure.

    Tier A: fully specialized monomorphic paths for the instructions
    that dominate rewriter output — W64 register/immediate ALU, the
    x21 guard add, mov-immediates, adr, and unsigned loads/stores with
    immediate offsets.  Tier B: shape-resolved closures that reuse the
    step path's helpers ([get]/[set], {!Interp.arith_flags}, …).
    Tier C (the [_] arm): capture the decoded instruction, restore
    [m.pc] (some semantics read it), and run {!Interp.exec_insn}. *)
let lower (pci : int) (insn : Insn.t) : Machine.t -> unit =
  match insn with
  (* --- the LFI guard: add xD, x21, wN, uxtw --- *)
  | Insn.Alu
      { op = Insn.ADD; flags = false; dst = Reg.R (Reg.W64, d);
        src = Reg.R (Reg.W64, 21); op2 = Insn.Ext (Reg.R (_, n), Insn.Uxtw, 0)
      } ->
      fun m ->
        Array.unsafe_set m.regs d
          (Int64.add (Array.unsafe_get m.regs 21)
             (Int64.logand (Array.unsafe_get m.regs n) mask32))
  (* --- W64 reg/reg ALU, unshifted --- *)
  | Insn.Alu
      { op; flags = false; dst = Reg.R (Reg.W64, d); src = Reg.R (Reg.W64, s);
        op2 = Insn.Sh (Reg.R (Reg.W64, s2), _, 0) } -> (
      match op with
      | Insn.ADD ->
          fun m ->
            Array.unsafe_set m.regs d
              (Int64.add (Array.unsafe_get m.regs s)
                 (Array.unsafe_get m.regs s2))
      | Insn.SUB ->
          fun m ->
            Array.unsafe_set m.regs d
              (Int64.sub (Array.unsafe_get m.regs s)
                 (Array.unsafe_get m.regs s2))
      | Insn.AND ->
          fun m ->
            Array.unsafe_set m.regs d
              (Int64.logand (Array.unsafe_get m.regs s)
                 (Array.unsafe_get m.regs s2))
      | Insn.ORR ->
          fun m ->
            Array.unsafe_set m.regs d
              (Int64.logor (Array.unsafe_get m.regs s)
                 (Array.unsafe_get m.regs s2))
      | Insn.EOR ->
          fun m ->
            Array.unsafe_set m.regs d
              (Int64.logxor (Array.unsafe_get m.regs s)
                 (Array.unsafe_get m.regs s2))
      | Insn.BIC ->
          fun m ->
            Array.unsafe_set m.regs d
              (Int64.logand (Array.unsafe_get m.regs s)
                 (Int64.lognot (Array.unsafe_get m.regs s2)))
      | Insn.ORN ->
          fun m ->
            Array.unsafe_set m.regs d
              (Int64.logor (Array.unsafe_get m.regs s)
                 (Int64.lognot (Array.unsafe_get m.regs s2)))
      | Insn.EON ->
          fun m ->
            Array.unsafe_set m.regs d
              (Int64.logxor (Array.unsafe_get m.regs s)
                 (Int64.lognot (Array.unsafe_get m.regs s2))))
  (* --- W64 reg/imm add/sub (address arithmetic) --- *)
  | Insn.Alu
      { op = (Insn.ADD | Insn.SUB) as op; flags = false;
        dst = Reg.R (Reg.W64, d); src = Reg.R (Reg.W64, s);
        op2 = Insn.Imm (iv, sh) } ->
      let c = Int64.shift_left (Int64.of_int iv) sh in
      if op = Insn.ADD then
        fun m ->
          Array.unsafe_set m.regs d (Int64.add (Array.unsafe_get m.regs s) c)
      else
        fun m ->
          Array.unsafe_set m.regs d (Int64.sub (Array.unsafe_get m.regs s) c)
  (* --- W32 reg/reg ALU, unshifted: one final mask replaces the
         per-operand masks (the low 32 result bits of +/-/logic depend
         only on the low 32 operand bits) --- *)
  | Insn.Alu
      { op; flags = false; dst = Reg.R (Reg.W32, d); src = Reg.R (Reg.W32, s);
        op2 = Insn.Sh (Reg.R (Reg.W32, s2), _, 0) } -> (
      match op with
      | Insn.ADD ->
          fun m ->
            Array.unsafe_set m.regs d
              (Int64.logand mask32
                 (Int64.add (Array.unsafe_get m.regs s)
                    (Array.unsafe_get m.regs s2)))
      | Insn.SUB ->
          fun m ->
            Array.unsafe_set m.regs d
              (Int64.logand mask32
                 (Int64.sub (Array.unsafe_get m.regs s)
                    (Array.unsafe_get m.regs s2)))
      | Insn.AND ->
          fun m ->
            Array.unsafe_set m.regs d
              (Int64.logand mask32
                 (Int64.logand (Array.unsafe_get m.regs s)
                    (Array.unsafe_get m.regs s2)))
      | Insn.ORR ->
          fun m ->
            Array.unsafe_set m.regs d
              (Int64.logand mask32
                 (Int64.logor (Array.unsafe_get m.regs s)
                    (Array.unsafe_get m.regs s2)))
      | Insn.EOR ->
          fun m ->
            Array.unsafe_set m.regs d
              (Int64.logand mask32
                 (Int64.logxor (Array.unsafe_get m.regs s)
                    (Array.unsafe_get m.regs s2)))
      | Insn.BIC ->
          fun m ->
            Array.unsafe_set m.regs d
              (Int64.logand mask32
                 (Int64.logand (Array.unsafe_get m.regs s)
                    (Int64.lognot (Array.unsafe_get m.regs s2))))
      | Insn.ORN ->
          fun m ->
            Array.unsafe_set m.regs d
              (Int64.logand mask32
                 (Int64.logor (Array.unsafe_get m.regs s)
                    (Int64.lognot (Array.unsafe_get m.regs s2))))
      | Insn.EON ->
          fun m ->
            Array.unsafe_set m.regs d
              (Int64.logand mask32
                 (Int64.logxor (Array.unsafe_get m.regs s)
                    (Int64.lognot (Array.unsafe_get m.regs s2)))))
  (* --- W32 reg/imm add/sub --- *)
  | Insn.Alu
      { op = (Insn.ADD | Insn.SUB) as op; flags = false;
        dst = Reg.R (Reg.W32, d); src = Reg.R (Reg.W32, s);
        op2 = Insn.Imm (iv, sh) } ->
      let c = Int64.shift_left (Int64.of_int iv) sh in
      if op = Insn.ADD then
        fun m ->
          Array.unsafe_set m.regs d
            (Int64.logand mask32 (Int64.add (Array.unsafe_get m.regs s) c))
      else
        fun m ->
          Array.unsafe_set m.regs d
            (Int64.logand mask32 (Int64.sub (Array.unsafe_get m.regs s) c))
  (* --- cmp/cmn (flag-setting add/sub into the zero register):
         arith_flags masks its operands itself, so raw register reads
         are fine --- *)
  | Insn.Alu
      { op = (Insn.ADD | Insn.SUB) as op; flags = true; dst = Reg.ZR w;
        src = Reg.R (_, s); op2 = Insn.Sh (Reg.R (w2, s2), _, 0) }
    when w2 = w ->
      let sub = op = Insn.SUB in
      fun m ->
        ignore
          (Interp.arith_flags m w ~sub (Array.unsafe_get m.regs s)
             (Array.unsafe_get m.regs s2))
  | Insn.Alu
      { op = (Insn.ADD | Insn.SUB) as op; flags = true; dst = Reg.ZR w;
        src = Reg.R (_, s); op2 = Insn.Imm (iv, sh) } ->
      let c = Int64.shift_left (Int64.of_int iv) sh in
      let sub = op = Insn.SUB in
      fun m ->
        ignore (Interp.arith_flags m w ~sub (Array.unsafe_get m.regs s) c)
  | Insn.Alu { op; flags; dst; src; op2 } -> lower_alu op flags dst src op2
  (* --- move-immediates: fold to a pre-boxed constant --- *)
  | Insn.Mov { op = Insn.MOVZ; dst; imm; hw } -> (
      let k = Int64.shift_left (Int64.of_int imm) (hw * 16) in
      match dst with
      | Reg.R (Reg.W64, d) -> fun m -> Array.unsafe_set m.regs d k
      | _ -> fun m -> set m dst k)
  | Insn.Mov { op = Insn.MOVN; dst; imm; hw } -> (
      let w = Reg.width dst in
      let k =
        Interp.mask_w w
          (Int64.lognot (Int64.shift_left (Int64.of_int imm) (hw * 16)))
      in
      match dst with
      | Reg.R (Reg.W64, d) -> fun m -> Array.unsafe_set m.regs d k
      | _ -> fun m -> set m dst k)
  | Insn.Mov { op = Insn.MOVK; dst; imm; hw } ->
      let w = Reg.width dst in
      let v = Int64.shift_left (Int64.of_int imm) (hw * 16) in
      let keep = Int64.lognot (Int64.shift_left 0xFFFFL (hw * 16)) in
      fun m ->
        set m dst (Interp.mask_w w (Int64.logor (Int64.logand (get m dst) keep) v))
  (* --- adr/adrp: the result is a build-time constant --- *)
  | Insn.Adr { page; dst; target = Insn.Off off } -> (
      let pc = Int64.of_int pci in
      let base = if page then Int64.logand pc (Int64.lognot 0xFFFL) else pc in
      let k = Int64.add base (Int64.of_int off) in
      match dst with
      | Reg.R (Reg.W64, d) -> fun m -> Array.unsafe_set m.regs d k
      | _ -> fun m -> set m dst k)
  (* --- unsigned loads, immediate offset --- *)
  | Insn.Ldr
      { sz = Insn.X; signed = false; dst = Reg.R (Reg.W64, d);
        addr = Insn.Imm_off (Reg.R (Reg.W64, bn), off) } ->
      let o = Int64.of_int off in
      fun m ->
        let a = Int64.add (Array.unsafe_get m.regs bn) o in
        charge_tlb m a;
        Array.unsafe_set m.regs d (Memory.read m.mem a 8)
  | Insn.Ldr
      { sz = (Insn.W | Insn.H | Insn.B) as sz; signed = false;
        dst = Reg.R (Reg.W32, d); addr = Insn.Imm_off (Reg.R (Reg.W64, bn), off)
      } ->
      let o = Int64.of_int off in
      let bytes = Insn.mem_bytes sz in
      fun m ->
        let a = Int64.add (Array.unsafe_get m.regs bn) o in
        charge_tlb m a;
        (* a read of <= 4 bytes is already < 2^32: the W32 write mask
           is the identity *)
        Array.unsafe_set m.regs d (Memory.read m.mem a bytes)
  (* --- guarded unsigned loads: ldr rD, [x21, wN, uxtw #s] --- *)
  | Insn.Ldr
      { sz; signed = false; dst = Reg.R (dw, d);
        addr = Insn.Reg_off (Reg.R (Reg.W64, 21), Reg.R (_, n), Insn.Uxtw, amt)
      }
    when (match (sz, dw) with
         | Insn.X, Reg.W64 -> true
         | (Insn.W | Insn.H | Insn.B), Reg.W32 -> true
         | _ -> false) ->
      let bytes = Insn.mem_bytes sz in
      fun m ->
        let base = Array.unsafe_get m.regs 21 in
        let raw = Array.unsafe_get m.regs n in
        clamp_audit m pci base raw;
        let a =
          Int64.add base (Int64.shift_left (Int64.logand raw mask32) amt)
        in
        charge_tlb m a;
        Array.unsafe_set m.regs d (Memory.read m.mem a bytes)
  (* --- stores, immediate offset --- *)
  | Insn.Str { sz; src; addr = Insn.Imm_off (Reg.R (Reg.W64, bn), off) } ->
      let o = Int64.of_int off in
      let bytes = Insn.mem_bytes sz in
      fun m ->
        let a = Int64.add (Array.unsafe_get m.regs bn) o in
        charge_tlb m a;
        Memory.write m.mem a bytes (get m src)
  (* --- guarded stores: str rS, [x21, wN, uxtw #s] --- *)
  | Insn.Str
      { sz; src;
        addr = Insn.Reg_off (Reg.R (Reg.W64, 21), Reg.R (_, n), Insn.Uxtw, amt)
      } ->
      let bytes = Insn.mem_bytes sz in
      fun m ->
        let base = Array.unsafe_get m.regs 21 in
        let raw = Array.unsafe_get m.regs n in
        clamp_audit m pci base raw;
        let a =
          Int64.add base (Int64.shift_left (Int64.logand raw mask32) amt)
        in
        charge_tlb m a;
        Memory.write m.mem a bytes (get m src)
  (* --- remaining loads/stores: shape-resolved, pc-free addressing --- *)
  | Insn.Ldr { sz; signed; dst; addr } ->
      let bytes = Insn.mem_bytes sz in
      let w = Reg.width dst in
      fun m ->
        let a = baddr_of m pci addr in
        let raw = bread m a bytes in
        Interp.writeback m addr a;
        set m dst (Interp.ld_result sz ~signed w raw)
  | Insn.Str { sz; src; addr } ->
      let bytes = Insn.mem_bytes sz in
      fun m ->
        let a = baddr_of m pci addr in
        bwrite m a bytes (get m src);
        Interp.writeback m addr a
  | Insn.Ldp { w; r1; r2; addr } ->
      let size = match w with Reg.W64 -> 8 | Reg.W32 -> 4 in
      let szL = Int64.of_int size in
      fun m ->
        let a = baddr_of m pci addr in
        let v1 = bread m a size in
        let v2 = bread m (Int64.add a szL) size in
        Interp.writeback m addr a;
        set m r1 v1;
        set m r2 v2
  | Insn.Stp { w; r1; r2; addr } ->
      let size = match w with Reg.W64 -> 8 | Reg.W32 -> 4 in
      let szL = Int64.of_int size in
      fun m ->
        let a = baddr_of m pci addr in
        bwrite m a size (get m r1);
        bwrite m (Int64.add a szL) size (get m r2);
        Interp.writeback m addr a
  | Insn.Fldr { dst; addr } ->
      let bytes = Reg.Fp.bytes dst in
      let n = dst.Reg.Fp.n in
      if bytes = 16 then
        fun m ->
          let a = baddr_of m pci addr in
          let lo = bread m a 8 and hi = bread m (Int64.add a 8L) 8 in
          Array.unsafe_set m.vlo n lo;
          Array.unsafe_set m.vhi n hi;
          Interp.writeback m addr a
      else
        fun m ->
          let a = baddr_of m pci addr in
          let v = bread m a bytes in
          Array.unsafe_set m.vlo n v;
          Array.unsafe_set m.vhi n 0L;
          Interp.writeback m addr a
  | Insn.Fstr { src; addr } ->
      let bytes = Reg.Fp.bytes src in
      let n = src.Reg.Fp.n in
      fun m ->
        let a = baddr_of m pci addr in
        (if bytes = 16 then begin
           bwrite m a 8 (Array.unsafe_get m.vlo n);
           bwrite m (Int64.add a 8L) 8 (Array.unsafe_get m.vhi n)
         end
         else
           bwrite m a bytes
             (if bytes = 4 then Int64.logand (Array.unsafe_get m.vlo n) mask32
              else Array.unsafe_get m.vlo n));
        Interp.writeback m addr a
  | Insn.Fldp { r1; r2; addr } ->
      let bytes = Reg.Fp.bytes r1 in
      let szL = Int64.of_int bytes in
      let n1 = r1.Reg.Fp.n and n2 = r2.Reg.Fp.n in
      fun m ->
        let a = baddr_of m pci addr in
        let rd n a =
          if bytes = 16 then begin
            Array.unsafe_set m.vlo n (bread m a 8);
            Array.unsafe_set m.vhi n (bread m (Int64.add a 8L) 8)
          end
          else begin
            Array.unsafe_set m.vlo n (bread m a bytes);
            Array.unsafe_set m.vhi n 0L
          end
        in
        rd n1 a;
        rd n2 (Int64.add a szL);
        Interp.writeback m addr a
  | Insn.Fstp { r1; r2; addr } ->
      let bytes = Reg.Fp.bytes r1 in
      let szL = Int64.of_int bytes in
      let n1 = r1.Reg.Fp.n and n2 = r2.Reg.Fp.n in
      fun m ->
        let a = baddr_of m pci addr in
        let wr n a =
          if bytes = 16 then begin
            bwrite m a 8 (Array.unsafe_get m.vlo n);
            bwrite m (Int64.add a 8L) 8 (Array.unsafe_get m.vhi n)
          end
          else
            bwrite m a bytes
              (if bytes = 4 then Int64.logand (Array.unsafe_get m.vlo n) mask32
               else Array.unsafe_get m.vlo n)
        in
        wr n1 a;
        wr n2 (Int64.add a szL);
        Interp.writeback m addr a
  | Insn.Ldxr { sz; dst; base } ->
      let bytes = Insn.mem_bytes sz in
      fun m ->
        let a = get m base in
        let v = bread m a bytes in
        m.exclusive <- Some a;
        set m dst v
  | Insn.Stxr { sz; status; src; base } ->
      let bytes = Insn.mem_bytes sz in
      fun m ->
        let a = get m base in
        (match m.exclusive with
        | Some e when Int64.equal e a ->
            bwrite m a bytes (get m src);
            set m status 0L
        | _ -> set m status 1L);
        m.exclusive <- None
  | Insn.Ldar { sz; dst; base } ->
      let bytes = Insn.mem_bytes sz in
      fun m -> set m dst (bread m (get m base) bytes)
  | Insn.Stlr { sz; src; base } ->
      let bytes = Insn.mem_bytes sz in
      fun m -> bwrite m (get m base) bytes (get m src)
  (* --- integer data-processing, shape-resolved --- *)
  | Insn.Shiftv { op; dst; src; amount } ->
      let w = Reg.width dst in
      let bmask =
        Int64.of_int ((match w with Reg.W64 -> 64 | Reg.W32 -> 32) - 1)
      in
      fun m ->
        let a = Int64.to_int (Int64.logand (get m amount) bmask) in
        set m dst (Interp.shift_value w op (get m src) a)
  | Insn.Bitfield { op; dst; src; immr; imms } ->
      lower_bitfield op dst src immr imms
  | Insn.Extr { dst; src1; src2; lsb } ->
      let w = Reg.width dst in
      let bits = match w with Reg.W64 -> 64 | Reg.W32 -> 32 in
      fun m ->
        let hi = Interp.mask_w w (get m src1)
        and lo = Interp.mask_w w (get m src2) in
        let r =
          if lsb = 0 then lo
          else
            Int64.logor
              (Int64.shift_right_logical lo lsb)
              (Int64.shift_left hi (bits - lsb))
        in
        set m dst (Interp.mask_w w r)
  | Insn.Madd { sub; dst; src1; src2; acc } ->
      let w = Reg.width dst in
      if sub then
        fun m ->
          let p = Int64.mul (get m src1) (get m src2) in
          set m dst (Interp.mask_w w (Int64.sub (get m acc) p))
      else
        fun m ->
          let p = Int64.mul (get m src1) (get m src2) in
          set m dst (Interp.mask_w w (Int64.add (get m acc) p))
  | Insn.Smulh { signed; dst; src1; src2 } ->
      fun m -> set m dst (Interp.mulh ~signed (get m src1) (get m src2))
  | Insn.Maddl { signed; sub; dst; src1; src2; acc } ->
      let widen v =
        if signed then Interp.sext32 (Int64.logand v mask32)
        else Int64.logand v mask32
      in
      fun m ->
        let p = Int64.mul (widen (get m src1)) (widen (get m src2)) in
        let r =
          if sub then Int64.sub (get m acc) p else Int64.add (get m acc) p
        in
        set m dst r
  | Insn.Ccmp { cmn; src; op2; nzcv; cond } ->
      let w = Reg.width src in
      fun m ->
        if cond_holds m cond then begin
          let b =
            match op2 with
            | Insn.CReg r -> get m r
            | Insn.CImm v -> Int64.of_int v
          in
          ignore (Interp.arith_flags m w ~sub:(not cmn) (get m src) b)
        end
        else
          set_nzcv m
            ~n:(nzcv land 8 <> 0)
            ~z:(nzcv land 4 <> 0)
            ~c:(nzcv land 2 <> 0)
            ~v:(nzcv land 1 <> 0)
  | Insn.Div { signed; dst; src1; src2 } ->
      let w = Reg.width dst in
      fun m ->
        let a = get m src1 and b = get m src2 in
        let a, b =
          match w with
          | Reg.W64 -> (a, b)
          | Reg.W32 ->
              if signed then (Interp.sext32 a, Interp.sext32 b)
              else (Interp.mask_w w a, Interp.mask_w w b)
        in
        let r =
          if Int64.equal b 0L then 0L
          else if signed then
            if Int64.equal a Int64.min_int && Int64.equal b (-1L) then
              Int64.min_int
            else Int64.div a b
          else Int64.unsigned_div a b
        in
        set m dst (Interp.mask_w w r)
  | Insn.Csel
      { op = Insn.CSINC; dst = Reg.R (_, d); src1 = Reg.ZR _;
        src2 = Reg.ZR _; cond } ->
      (* cset: materialize the (inverted) condition as 0/1 *)
      fun m ->
        Array.unsafe_set m.regs d (if cond_holds m cond then 0L else 1L)
  | Insn.Csel { op; dst; src1; src2; cond } ->
      let w = Reg.width dst in
      fun m ->
        let r =
          if cond_holds m cond then Interp.mask_w w (get m src1)
          else
            let b = Interp.mask_w w (get m src2) in
            match op with
            | Insn.CSEL -> b
            | Insn.CSINC -> Interp.mask_w w (Int64.add b 1L)
            | Insn.CSINV -> Interp.mask_w w (Int64.lognot b)
            | Insn.CSNEG -> Interp.mask_w w (Int64.neg b)
        in
        set m dst r
  | Insn.Cls { count_zero; dst; src } ->
      let w = Reg.width dst in
      fun m ->
        let v = Interp.mask_w w (get m src) in
        set m dst
          (Int64.of_int
             (if count_zero then Interp.clz_value w v else Interp.cls_value w v))
  | Insn.Rbit { dst; src } ->
      let w = Reg.width dst in
      fun m -> set m dst (Interp.rbit_value w (Interp.mask_w w (get m src)))
  | Insn.Rev { bytes; dst; src } ->
      let w = Reg.width dst in
      fun m ->
        set m dst
          (Interp.mask_w w (Interp.rev_value w bytes (Interp.mask_w w (get m src))))
  (* --- floating point, op resolved at build time --- *)
  | Insn.Fop2 { op; dst; src1; src2 } -> (
      match op with
      | Insn.FADD ->
          fun m ->
            set_float m dst
              (Interp.round_to_size dst (get_float m src1 +. get_float m src2))
      | Insn.FSUB ->
          fun m ->
            set_float m dst
              (Interp.round_to_size dst (get_float m src1 -. get_float m src2))
      | Insn.FMUL ->
          fun m ->
            set_float m dst
              (Interp.round_to_size dst (get_float m src1 *. get_float m src2))
      | Insn.FDIV ->
          fun m ->
            set_float m dst
              (Interp.round_to_size dst (get_float m src1 /. get_float m src2))
      | Insn.FMIN ->
          fun m ->
            set_float m dst
              (Interp.round_to_size dst
                 (Float.min (get_float m src1) (get_float m src2)))
      | Insn.FMAX ->
          fun m ->
            set_float m dst
              (Interp.round_to_size dst
                 (Float.max (get_float m src1) (get_float m src2))))
  | Insn.Fop1 { op; dst; src } -> (
      match op with
      | Insn.FNEG ->
          fun m -> set_float m dst (Interp.round_to_size dst (-.(get_float m src)))
      | Insn.FABS ->
          fun m ->
            set_float m dst (Interp.round_to_size dst (Float.abs (get_float m src)))
      | Insn.FSQRT ->
          fun m ->
            set_float m dst
              (Interp.round_to_size dst (Float.sqrt (get_float m src)))
      | Insn.FMOV ->
          fun m -> set_float m dst (Interp.round_to_size dst (get_float m src)))
  | Insn.Fmadd { sub; dst; src1; src2; acc } ->
      if sub then
        fun m ->
          let a = get_float m src1
          and b = get_float m src2
          and c = get_float m acc in
          set_float m dst (Interp.round_to_size dst (c -. (a *. b)))
      else
        fun m ->
          let a = get_float m src1
          and b = get_float m src2
          and c = get_float m acc in
          set_float m dst (Interp.round_to_size dst (c +. (a *. b)))
  | Insn.Fcmp { src1; src2 } ->
      fun m ->
        let a = get_float m src1 in
        let b = match src2 with Some r -> get_float m r | None -> 0.0 in
        if Float.is_nan a || Float.is_nan b then
          set_nzcv m ~n:false ~z:false ~c:true ~v:true
        else if a < b then set_nzcv m ~n:true ~z:false ~c:false ~v:false
        else if a = b then set_nzcv m ~n:false ~z:true ~c:true ~v:false
        else set_nzcv m ~n:false ~z:false ~c:true ~v:false
  | Insn.Fcvt { dst; src } ->
      fun m -> set_float m dst (Interp.round_to_size dst (get_float m src))
  | Insn.Scvtf { signed; dst; src } ->
      let sw = Reg.width src in
      fun m ->
        let v = get m src in
        let v =
          match sw with
          | Reg.W64 -> v
          | Reg.W32 ->
              if signed then Interp.sext32 v else Int64.logand v mask32
        in
        let f = if signed then Int64.to_float v else Interp.ucvtf_value v in
        set_float m dst (Interp.round_to_size dst f)
  | Insn.Fcvtzs { signed; dst; src } ->
      let w = Reg.width dst in
      fun m -> set m dst (Interp.fcvtzs_value ~signed w (get_float m src))
  | Insn.Fmov_to_fp { dst; src } -> (
      let n = dst.Reg.Fp.n in
      match dst.Reg.Fp.size with
      | Reg.Fp.D | Reg.Fp.Q -> fun m -> Array.unsafe_set m.vlo n (get m src)
      | Reg.Fp.S ->
          fun m -> Array.unsafe_set m.vlo n (Int64.logand (get m src) mask32))
  | Insn.Fmov_from_fp { dst; src } -> (
      let n = src.Reg.Fp.n in
      match src.Reg.Fp.size with
      | Reg.Fp.D | Reg.Fp.Q -> fun m -> set m dst (Array.unsafe_get m.vlo n)
      | Reg.Fp.S ->
          fun m -> set m dst (Int64.logand (Array.unsafe_get m.vlo n) mask32))
  (* --- system --- *)
  | Insn.Nop | Insn.Dmb | Insn.Msr _ -> ignore_op
  | Insn.Mrs { dst; _ } -> fun m -> set m dst 0L
  (* --- everything else (adr with an unresolved symbol, and any
         future instruction): restore pc and fall back to the
         reference interpreter --- *)
  | _ ->
      let pc = Int64.of_int pci in
      fun m ->
        m.pc <- pc;
        ignore (Interp.exec_insn m insn)

(* ------------------------------------------------------------------ *)
(* Block construction                                                  *)
(* ------------------------------------------------------------------ *)

let is_term (i : Insn.t) : bool =
  match i with
  | Insn.B _ | Insn.Bl _ | Insn.Bcond _ | Insn.Cbz _ | Insn.Tbz _ | Insn.Br _
  | Insn.Blr _ | Insn.Ret _ | Insn.Svc _ | Insn.Udf _ ->
      true
  | _ -> false

(* A branch whose target is still symbolic cannot be resolved at build
   time.  At k > 0 the block simply ends before it — the step path
   would have executed the preceding instructions first, and so do we;
   at k = 0 failing the build IS the execution attempt. *)
let has_sym_target (i : Insn.t) : bool =
  match i with
  | Insn.B (Insn.Sym _)
  | Insn.Bl (Insn.Sym _)
  | Insn.Bcond (_, Insn.Sym _)
  | Insn.Cbz { target = Insn.Sym _; _ }
  | Insn.Tbz { target = Insn.Sym _; _ } ->
      true
  | _ -> false

let make_term (tpc : int) (insn : Insn.t) : bterm =
  let next = tpc + 4 in
  match insn with
  | Insn.B (Insn.Off o) -> Tb { target = tpc + o; ti = tpc }
  | Insn.Bl (Insn.Off o) ->
      Tbl { target = tpc + o; ti = tpc; link = Int64.of_int next }
  | Insn.Bcond (c, Insn.Off o) ->
      Tbcond { cond = c; target = tpc + o; ti = tpc; next }
  | Insn.Cbz { nz; reg; target = Insn.Off o } ->
      Tcbz { nz; reg; target = tpc + o; ti = tpc; next }
  | Insn.Tbz { nz; reg; bit; target = Insn.Off o } ->
      Ttbz { nz; reg; bit; target = tpc + o; ti = tpc; next }
  | Insn.Br r -> Tbr { reg = r; ti = tpc }
  | Insn.Blr r -> Tblr { reg = r; ti = tpc; link = Int64.of_int next }
  | Insn.Ret r -> Tret { reg = r; ti = tpc }
  | Insn.Svc n -> Tsvc { n; next = Int64.of_int next }
  | Insn.Udf _ -> Tudf { pc = Int64.of_int tpc }
  | Insn.B (Insn.Sym s)
  | Insn.Bl (Insn.Sym s)
  | Insn.Bcond (_, Insn.Sym s)
  | Insn.Cbz { target = Insn.Sym s; _ }
  | Insn.Tbz { target = Insn.Sym s; _ } ->
      failwith ("unresolved symbol at execution: " ^ s)
  | _ -> assert false

(** Decode (through the shared per-page decode cache) the instruction
    at [pci] without charging cost or counting telemetry — charging
    happens at execution, from [b_costs] and the block's tallies.  A
    slot decoded here while metrics are armed is marked fresh, so its
    decode miss is counted when it first retires, not now: lowering
    runs ahead of execution (past a faulting instruction, say).
    [None] means the fetch would fault: at [k > 0] the block ends
    cleanly before the fault (the step path executes the preceding
    instructions first), while at [k = 0] the fault propagates exactly
    as a step-path fetch. *)
let fetch_decoded (m : Machine.t) (k : int) (pci : int) :
    (Insn.t * float) option =
  let pidx = pci lsr Memory.page_bits in
  let slot = (pci land (Memory.page_size - 1)) lsr 2 in
  if m.dc_idx <> pidx then Machine.decode_page m pidx;
  let i = Array.unsafe_get m.dc_arr slot in
  if i != Machine.undecoded then Some (i, Array.unsafe_get m.dc_cost slot)
  else
    match Memory.fetch m.mem (Int64.of_int pci) with
    | word ->
        let i = Decode.decode word in
        let c = Cost_model.cost m.uarch i in
        Array.unsafe_set m.dc_arr slot i;
        Array.unsafe_set m.dc_cost slot c;
        (match m.metrics with
        | None -> ()
        | Some _ -> Bytes.unsafe_set m.dc_fresh slot '\001');
        Some (i, c)
    | exception Memory.Fault _ when k > 0 -> None

let block_page (m : Machine.t) (idx : int) : bpage =
  match Hashtbl.find_opt m.blocks idx with
  | Some bp -> bp
  | None ->
      let bp =
        { bp_entries = Array.make Machine.decode_slots no_blk; bp_blocks = [] }
      in
      Hashtbl.replace m.blocks idx bp;
      bp

(* Where entry-page slot [s] of a block lives, given the per-slot
   arrays [a0] of its entry page and [a1] of the next: slots past the
   end of the entry page are on the next page. *)
let[@inline] page_cell (a0 : 'a) (a1 : 'a) (s : int) : 'a * int =
  if s < decode_slots then (a0, s) else (a1, s - decode_slots)

(* The observer tallies of valid block [b], read off the decode cache,
   where every slot of a valid block is decoded: invalidating a decode
   page kills the blocks on it. *)
let tally (m : Machine.t) (b : blk) : tally =
  let pidx = b.b_pci lsr Memory.page_bits in
  let slot0 = (b.b_pci land (Memory.page_size - 1)) lsr 2 in
  let page idx =
    match Hashtbl.find_opt m.decode_pages idx with
    | Some (insns, _, fresh) -> (insns, fresh)
    | None -> ([||], no_fresh_page)
  in
  let insns0, fresh0 = page pidx in
  let insns1, fresh1 =
    if b.b_pages > 1 then page (pidx + 1) else ([||], no_fresh_page)
  in
  let cls = Bytes.create b.b_len in
  let mix = Array.make Lfi_telemetry.Metrics.n_classes 0 in
  let sites =
    match m.overhead with None -> [||] | Some _ -> Array.make b.b_len (-1)
  in
  let pend = ref 0 in
  for k = 0 to b.b_len - 1 do
    let insns, i = page_cell insns0 insns1 (slot0 + k) in
    let c = Interp.insn_class insns.(i) in
    Bytes.set cls k (Char.chr c);
    mix.(c) <- mix.(c) + 1;
    (let fresh, i = page_cell fresh0 fresh1 (slot0 + k) in
     if Bytes.get fresh i <> '\000' then incr pend);
    match m.overhead with
    | None -> ()
    | Some a ->
        sites.(k) <- Lfi_telemetry.Overhead.site_at a (b.b_pci + (4 * k))
  done;
  {
    t_cls = cls;
    t_mix = mix;
    t_pend = !pend;
    t_fresh0 = fresh0;
    t_fresh1 = fresh1;
    t_sites = sites;
  }

(** Arm the emulator counters.  Block dispatch stays on: every block
    already lowered gets its tallies now, later ones when they are
    built. *)
let arm_metrics (m : Machine.t) (e : Lfi_telemetry.Metrics.emu) =
  m.metrics <- Some e;
  m.observed <- true;
  Hashtbl.iter
    (fun _ bp ->
      List.iter
        (fun b -> if b.b_valid && b.b_tally == no_tally then b.b_tally <- tally m b)
        bp.bp_blocks)
    m.blocks

(** Arm per-site attribution.  Blocks lowered before carry no site
    indices for [a], so they are all dropped: no block runs with stale
    or missing sites. *)
let arm_overhead (m : Machine.t) (a : Lfi_telemetry.Overhead.acc) =
  m.overhead <- Some a;
  m.observed <- true;
  drop_blocks m

(** Lower and register the block entered at [pci].  Building is the
    execution attempt at that pc: the dispatch loop does not maintain
    [m.pc], so materialize it here first — a fetch fault (misaligned
    or unmapped entry) must leave [m.pc] at the faulting instruction,
    exactly like a step-path fetch.  While an observer is armed the
    block also gets its {!tally}. *)
let build (m : Machine.t) (pci : int) : blk =
  m.blk_builds <- m.blk_builds + 1;
  m.pc <- Int64.of_int pci;
  if pci land 3 <> 0 then
    raise
      (Memory.Fault
         { Memory.addr = Int64.of_int pci; access = Memory.Fetch;
           reason = "misaligned pc" });
  let ops = Array.make max_block_len ignore_op in
  let costs = Array.make (max_block_len + 1) 0.0 in
  let rec scan (k : int) (pc : int) : int * bterm =
    if k = max_block_len || pc >= host_region_start_i then
      (k, Tfall { next = pc })
    else
      match fetch_decoded m k pc with
      | None -> (k, Tfall { next = pc })
      | Some (insn, cost) ->
          if is_term insn then
            if has_sym_target insn && k > 0 then
              (k, Tfall { next = pc })
            else begin
              Array.unsafe_set costs k cost;
              (k, make_term pc insn)
            end
          else begin
            Array.unsafe_set costs k cost;
            Array.unsafe_set ops k (lower pc insn);
            scan (k + 1) (pc + 4)
          end
  in
  let nbody, term = scan 0 pci in
  let total = match term with Tfall _ -> nbody | _ -> nbody + 1 in
  (* entry is in sandbox code and its fetch succeeded (or raised), so
     a block always retires at least one instruction — a zero-length
     block would livelock the dispatch loop *)
  assert (total > 0);
  let ncosts = match term with Tfall _ -> nbody | _ -> nbody + 1 in
  let pidx = pci lsr Memory.page_bits in
  let lastpc = pci + (4 * (total - 1)) in
  let npages = if lastpc lsr Memory.page_bits <> pidx then 2 else 1 in
  let page_wx idx =
    match Memory.find_page_by_index m.mem idx with
    | None -> false
    | Some p ->
        let pm = p.Memory.perm in
        pm.Memory.w && pm.Memory.x
  in
  let b =
    {
      b_pci = pci;
      b_len = total;
      b_body = Array.sub ops 0 nbody;
      b_costs = Array.sub costs 0 ncosts;
      b_term = term;
      b_pages = npages;
      b_wx = page_wx pidx || (npages > 1 && page_wx (pidx + 1));
      b_valid = true;
      b_succ0 = no_blk;
      b_succ1 = no_blk;
      b_tally = no_tally;
    }
  in
  if m.observed then b.b_tally <- tally m b;
  let bp = block_page m pidx in
  let slot = (pci land (Memory.page_size - 1)) lsr 2 in
  Array.unsafe_set bp.bp_entries slot b;
  bp.bp_blocks <- b :: bp.bp_blocks;
  if b.b_pages > 1 then begin
    let bp2 = block_page m (pidx + 1) in
    bp2.bp_blocks <- b :: bp2.bp_blocks
  end;
  b

(** Find the block entered at [pci], building it on a miss.  The
    last-page pointer ([bp_idx]/[bp_arr]) makes the common case two
    compares and an array load. *)
let lookup (m : Machine.t) (pci : int) : blk =
  let pidx = pci lsr Memory.page_bits in
  if m.bp_idx <> pidx then begin
    let bp = block_page m pidx in
    m.bp_idx <- pidx;
    m.bp_arr <- bp.bp_entries
  end;
  let slot = (pci land (Memory.page_size - 1)) lsr 2 in
  let b = Array.unsafe_get m.bp_arr slot in
  if b.b_valid && b.b_pci = pci then b else build m pci

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

let[@inline] flight_jump (m : Machine.t) (kind : int) (ti : int)
    (target : int) =
  match m.flight with
  | None -> ()
  | Some f -> Lfi_telemetry.Flight.record f kind ti target

(** Execute a block terminator: compute the next pc (returned as an
    untagged int — the dispatch loop only materializes the boxed
    [m.pc] at exit points), write the link register, and replicate the
    step path's flight-recorder events.  Trap terminators
    ([Tsvc]/[Tudf]) set [m.pc] themselves and return -1; the caller
    disambiguates -1 against the terminator kind, so a genuine
    indirect branch to pc -1 still dispatches (and faults) like the
    step path.  Never faults. *)
let exec_term (m : Machine.t) (t : bterm) : int =
  match t with
  | Tb { target; ti } ->
      flight_jump m Lfi_telemetry.Flight.k_branch ti target;
      target
  | Tbl { target; ti; link } ->
      Array.unsafe_set m.regs 30 link;
      flight_jump m Lfi_telemetry.Flight.k_call ti target;
      target
  | Tbcond { cond; target; ti; next } ->
      if cond_holds m cond then begin
        flight_jump m Lfi_telemetry.Flight.k_branch ti target;
        target
      end
      else next
  | Tcbz { nz; reg; target; ti; next } ->
      let v = Interp.mask_w (Reg.width reg) (get m reg) in
      let zero = Int64.equal v 0L in
      if (zero && not nz) || ((not zero) && nz) then begin
        flight_jump m Lfi_telemetry.Flight.k_branch ti target;
        target
      end
      else next
  | Ttbz { nz; reg; bit; target; ti; next } ->
      let b = Int64.logand (Int64.shift_right_logical (get m reg) bit) 1L in
      let taken = if nz then Int64.equal b 1L else Int64.equal b 0L in
      if taken then begin
        flight_jump m Lfi_telemetry.Flight.k_branch ti target;
        target
      end
      else next
  | Tbr { reg; ti } ->
      let t = Int64.to_int (get m reg) in
      flight_jump m Lfi_telemetry.Flight.k_branch ti t;
      t
  | Tblr { reg; ti; link } ->
      let t = Int64.to_int (get m reg) in
      Array.unsafe_set m.regs 30 link;
      flight_jump m Lfi_telemetry.Flight.k_call ti t;
      t
  | Tret { reg; ti } ->
      let t = Int64.to_int (get m reg) in
      flight_jump m Lfi_telemetry.Flight.k_ret ti t;
      t
  | Tsvc { n = _; next } ->
      m.pc <- next;
      -1
  | Tudf { pc } ->
      m.pc <- pc;
      -1
  | Tfall _ -> assert false

(* Straight-line body ops on a W+X block: charge the instruction's
   cost, record the index for fault repair, execute, and re-check
   [b_valid] — one of our own stores may have invalidated the block.
   Returns the number of ops completed; on early stop the caller
   re-dispatches at the next pc, which re-lowers from the freshly
   written bytes, exactly like the step path's next fetch. *)
let rec body_loop (m : Machine.t) (b : blk) (body : (Machine.t -> unit) array)
    (costs : float array) (n : int) (i : int) : int =
  if i >= n then n
  else begin
    add_cycles m (Array.unsafe_get costs i);
    m.blk_i <- i;
    (Array.unsafe_get body i) m;
    if b.b_valid then body_loop m b body costs n (i + 1) else i + 1
  end

(* The common case: no overlapped page is writable+executable, so the
   block cannot be invalidated mid-execution (host-side permission
   changes invalidate before any further sandbox instruction runs) and
   the per-op validity check is dropped. *)
let rec body_fast (m : Machine.t) (body : (Machine.t -> unit) array)
    (costs : float array) (n : int) (i : int) : unit =
  if i < n then begin
    add_cycles m (Array.unsafe_get costs i);
    m.blk_i <- i;
    (Array.unsafe_get body i) m;
    body_fast m body costs n (i + 1)
  end

(** Charge the armed observers for the first [r] slots of [b], the
    ones that retired: [b_len] after a full execution, otherwise the
    prefix up to the faulting or self-invalidating instruction.  A
    full execution adds the block's class totals; decode hits and
    misses need a walk over the fresh flags only while some slot still
    owes its miss.  Site cycles are added one executed site
    instruction at a time, in program order — never as execs × cost —
    so the accumulator sees the step path's exact float sequence. *)
let observe (m : Machine.t) (b : blk) (r : int) =
  let tl = b.b_tally in
  (match m.metrics with
  | None -> ()
  | Some t ->
      let open Lfi_telemetry.Metrics in
      if r = b.b_len then add_mix t tl.t_mix
      else
        for k = 0 to r - 1 do
          count_class t (Char.code (Bytes.get tl.t_cls k))
        done;
      if tl.t_pend = 0 then t.decode_hits <- t.decode_hits + r
      else begin
        let slot0 = (b.b_pci land (Memory.page_size - 1)) lsr 2 in
        for k = 0 to r - 1 do
          let fresh, i = page_cell tl.t_fresh0 tl.t_fresh1 (slot0 + k) in
          if Bytes.get fresh i <> '\000' then begin
            Bytes.set fresh i '\000';
            t.decode_misses <- t.decode_misses + 1
          end
          else t.decode_hits <- t.decode_hits + 1
        done;
        if r = b.b_len then tl.t_pend <- 0
      end);
  match m.overhead with
  | None -> ()
  | Some a ->
      let sites = tl.t_sites in
      for k = 0 to min r (Array.length sites) - 1 do
        let s = Array.unsafe_get sites k in
        if s >= 0 then
          Lfi_telemetry.Overhead.charge_site a s (Array.unsafe_get b.b_costs k)
      done

(* Retire the terminator after a fully-executed body of [n] ops;
   returns the next pc (or -1 for a trap terminator). *)
let[@inline] finish_block (m : Machine.t) (b : blk) (n : int) : int =
  match b.b_term with
  | Tfall { next } ->
      m.insns <- m.insns + n;
      m.blk_insns <- m.blk_insns + n;
      next
  | term ->
      add_cycles m (Array.unsafe_get b.b_costs n);
      m.insns <- m.insns + n + 1;
      m.blk_insns <- m.blk_insns + n + 1;
      exec_term m term

(** Run one block to completion (or to its self-invalidation point);
    returns the next pc as an untagged int, or -1 for a trap
    terminator (which has set [m.pc]).  On a memory fault the
    instruction count and pc are repaired to the faulting instruction
    — bit-identical to the step path, which counts an instruction
    before executing it — the armed observers are charged for that
    prefix, and the fault re-raised for {!run}'s single handler. *)
let exec_block (m : Machine.t) (b : blk) : int =
  m.blk_execs <- m.blk_execs + 1;
  let body = b.b_body in
  let n = Array.length body in
  try
    if b.b_wx then begin
      let c = body_loop m b body b.b_costs n 0 in
      if b.b_valid then finish_block m b n
      else begin
        (* invalidated mid-block by one of our own stores: resume at
           the next pc, which re-lowers the freshly written bytes *)
        m.insns <- m.insns + c;
        m.blk_insns <- m.blk_insns + c;
        b.b_pci + (4 * c)
      end
    end
    else begin
      body_fast m body b.b_costs n 0;
      finish_block m b n
    end
  with Memory.Fault _ as e ->
    let k = m.blk_i in
    m.insns <- m.insns + k + 1;
    m.blk_insns <- m.blk_insns + k + 1;
    if m.observed then observe m b (k + 1);
    m.pc <- Int64.of_int (b.b_pci + (4 * k));
    raise e

(** Block-dispatch quantum loop: the {!Exec.run} fast path.

    Each iteration does one bounds/translation check (host region +
    quantum budget), then runs a whole block.  Chain links are tried
    before the block table; a quantum tail too short for the next
    block is single-stepped through {!Interp.step_raw} so the quantum
    boundary lands on exactly the same instruction as the step path —
    per-call instruction budgets (libbox) kill at identical counts in
    both modes. *)
let run (m : Machine.t) ~(quantum : int) : Interp.event =
  let rec dispatch (pci : int) (remaining : int) : Interp.event =
    if remaining <= 0 then begin
      m.pc <- Int64.of_int pci;
      Interp.Quantum_expired
    end
    else if pci >= host_region_start_i then begin
      let pc = Int64.of_int pci in
      m.pc <- pc;
      Interp.Runtime_entry pc
    end
    else enter (lookup m pci) pci remaining
  and chain (prev : blk) (pci : int) (remaining : int) : Interp.event =
    if remaining <= 0 then begin
      m.pc <- Int64.of_int pci;
      Interp.Quantum_expired
    end
    else if pci >= host_region_start_i then begin
      let pc = Int64.of_int pci in
      m.pc <- pc;
      Interp.Runtime_entry pc
    end
    else begin
      let s0 = prev.b_succ0 in
      if s0.b_valid && s0.b_pci = pci then enter s0 pci remaining
      else
        let s1 = prev.b_succ1 in
        if s1.b_valid && s1.b_pci = pci then enter s1 pci remaining
        else begin
          let nb = lookup m pci in
          if not prev.b_succ0.b_valid then prev.b_succ0 <- nb
          else prev.b_succ1 <- nb;
          enter nb pci remaining
        end
    end
  and enter (b : blk) (pci : int) (remaining : int) : Interp.event =
    if b.b_len <= remaining then begin
      let before = m.insns in
      let npc = exec_block m b in
      let retired = m.insns - before in
      (* [b] ran to its end or to its self-invalidation point (a fault
         is charged by [exec_block]'s handler) *)
      if m.observed then observe m b retired;
      if npc <> -1 then chain b npc (remaining - retired)
      else
        match b.b_term with
        | Tsvc { n; _ } -> Interp.Trap (Interp.Svc_trap n)
        | Tudf { pc } -> Interp.Trap (Interp.Undefined pc)
        | _ ->
            (* a genuine branch whose target truncates to -1: dispatch
               there and fault exactly like the step path's next fetch *)
            chain b npc (remaining - retired)
    end
    else begin
      (* quantum tail: not enough budget for the whole block *)
      m.blk_deopts <- m.blk_deopts + 1;
      m.pc <- Int64.of_int pci;
      tail remaining
    end
  and tail (remaining : int) : Interp.event =
    if remaining <= 0 then Interp.Quantum_expired
    else
      match Interp.step_raw m with
      | None -> tail (remaining - 1)
      | Some e -> e
  in
  try dispatch (Int64.to_int m.pc) quantum
  with Memory.Fault f ->
    Interp.count_fault m;
    Interp.Trap (Interp.Mem_fault f)
