(** Bare-machine program execution for the fuzzing engines
    (DESIGN.md §5d).

    The engines cannot use {!Lfi_runtime.Runtime} to run candidate
    binaries: the runtime reschedules forever on [Quantum_expired] (an
    infinite-loop mutant would hang the fuzzer), refuses unverifiable
    images, and its host-side system-call handlers touch sandbox
    memory in ways a mutated binary could confuse.  Instead this
    module loads through the runtime's own loader steps — runtime-call
    table, segment mapping with W^X protection, stack,
    {!Lfi_runtime.Runtime.initial_snapshot} register state — onto a
    fresh machine, optionally installs the
    emulator's escape oracle, and drives execution with a *mini
    runtime*: a bounded instruction budget, [exit] handled, and every
    other runtime call answered with 0.  Loading performs **no
    verification**: the soundness engine feeds this module exactly
    the mutants the verifier accepted, and the oracle is the judge. *)

open Lfi_emulator

type stop =
  | Exit of int64  (** runtime call 1: the value of x0 *)
  | Trapped of string  (** memory fault, undefined instruction, svc *)
  | Stray_call of int64  (** runtime entry at no valid table entry *)
  | Out_of_budget  (** still running after the instruction budget *)

type outcome = {
  stop : stop;
  escapes : Machine.escape list;  (** oracle records, oldest first *)
  escape_count : int;  (** total, even past the recording cap *)
  insns : int;  (** instructions actually executed *)
}

let pp_stop fmt = function
  | Exit v -> Format.fprintf fmt "exit(%Ld)" v
  | Trapped why -> Format.fprintf fmt "trap: %s" why
  | Stray_call pc -> Format.fprintf fmt "stray runtime call at 0x%Lx" pc
  | Out_of_budget -> Format.fprintf fmt "out of budget"

(** A loaded, ready-to-run sandbox. *)
type t = {
  mem : Memory.t;
  machine : Machine.t;
  base : int64;
  data_origin : int64;  (** absolute address of the data section *)
}

(** Load [elf] at [base] (any multiple of the sandbox size, including
    0 for a native run) on a fresh machine.  Raises
    {!Lfi_runtime.Runtime.Load_error} on a misplaced segment. *)
let load ?(stack_size = 1 lsl 20) ~(base : int64) (elf : Lfi_elf.Elf.t) : t =
  let module Runtime = Lfi_runtime.Runtime in
  let mem = Memory.create () in
  let machine = Machine.create mem in
  ignore (Runtime.map_image mem base ~stack_size elf);
  Runtime.install_rtcall_table mem base;
  Machine.restore machine
    (Runtime.initial_snapshot base ~entry:elf.Lfi_elf.Elf.entry ~arg:0L);
  let data_origin =
    List.fold_left
      (fun acc (s : Lfi_elf.Elf.segment) ->
        if s.flags land Lfi_elf.Elf.pf_x <> 0 then acc
        else Int64.add base (Int64.of_int s.vaddr))
      0L elf.Lfi_elf.Elf.segments
  in
  { mem; machine; base; data_origin }

(** Install the escape oracle for the sandbox at [t.base]: data
    accesses may spill into the adjacent guard regions (that is what
    they are for — reserved-base immediates, sp drift and pre/post
    index offsets are all bounded well below the 48KiB guards), taken
    branches must stay inside the sandbox proper or land exactly on a
    runtime-call entry. *)
let install_oracle (t : t) : Machine.oracle =
  let sandbox = Int64.of_int Lfi_core.Layout.sandbox_size in
  let guard = Int64.of_int Lfi_core.Layout.guard_size in
  let o =
    Machine.oracle
      ~lo:(Int64.sub t.base guard)
      ~hi:(Int64.add t.base (Int64.add sandbox guard))
      ~branch_lo:t.base
      ~branch_hi:(Int64.add t.base sandbox)
      ~host_lo:Machine.host_region_start
      ~host_hi:
        (Int64.add Machine.host_region_start
           (Int64.of_int (8 * Lfi_runtime.Sysno.count)))
  in
  t.machine.Machine.escape_oracle <- Some o;
  o

let host_start_int = Int64.to_int Machine.host_region_start

(** Run to completion under an instruction [budget].  Runtime call 1
    ([exit]) stops with x0; every other valid entry returns 0 in x0
    and resumes at the return address [blr] left in x30 — enough to
    keep mutated programs moving without emulating the real runtime. *)
let run ?(budget = 500_000) (t : t) : outcome =
  let m = t.machine in
  let start = m.Machine.insns in
  let remaining () = budget - (m.Machine.insns - start) in
  let rec go () =
    let q = remaining () in
    if q <= 0 then Out_of_budget
    else
      match Exec.run m ~quantum:(min q 100_000) with
      | Exec.Quantum_expired -> go ()
      | Exec.Trap (Exec.Svc_trap k) when k = Lfi_runtime.Sysno.exit ->
          (* native (un-rewritten) programs exit by direct svc *)
          Exit m.Machine.regs.(0)
      | Exec.Trap tr -> Trapped (Format.asprintf "%a" Exec.pp_trap tr)
      | Exec.Runtime_entry pc ->
          let off = Int64.to_int pc - host_start_int in
          let k = off / 8 in
          if off < 0 || off mod 8 <> 0 || k >= Lfi_runtime.Sysno.count then
            Stray_call pc
          else if k = Lfi_runtime.Sysno.exit then Exit m.Machine.regs.(0)
          else begin
            m.Machine.regs.(0) <- 0L;
            m.Machine.pc <- m.Machine.regs.(30);
            go ()
          end
  in
  let stop = go () in
  let escapes, escape_count =
    match m.Machine.escape_oracle with
    | None -> ([], 0)
    | Some o -> (List.rev o.Machine.o_escapes, o.Machine.o_count)
  in
  { stop; escapes; escape_count; insns = m.Machine.insns - start }

(** Read [len] bytes of the data section starting at symbol-relative
    offset [off] (for memory digests). *)
let read_data (t : t) ~(off : int) ~(len : int) : bytes =
  Memory.read_bytes t.mem (Int64.add t.data_origin (Int64.of_int off)) len
