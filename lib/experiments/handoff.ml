(** Direct-yield handoff cost, in cycles.

    The paper's multi-tenant serving story leans on one number: an
    optimized [yield_to] between two sandboxes in the same address
    space costs on the order of {e 50 cycles} — no kernel, no page
    table switch, just a register-state swap plus scheduler
    bookkeeping.  This module measures our runtime's version of that
    number the same way {!Table5.measure_yield} does (two sandboxes
    ping-ponging through the real runtime-call table, verifier-clean
    code, the real {!Lfi_sched.Runq} promote path) but reports
    {e simulated cycles} rather than nanoseconds, so the serve bench
    can print it next to the paper's claim.

    The measured figure decomposes as [lfi_yield_direct] (the modeled
    hardware cost of the register swap: 42 cycles on m1, 46 on t2a)
    plus {!Lfi_runtime.Runtime.lfi_sched_bookkeeping} (8 cycles of
    scheduler accounting), and the loop overhead around it — landing in
    the same tens-of-cycles regime as the paper on both cost models. *)

open Lfi_emulator

type result = {
  h_uarch : string;
  h_iters : int;  (** yield_to round trips measured *)
  h_total_cycles : float;  (** whole two-sandbox run, simulated cycles *)
  h_cycles_per_handoff : float;
      (** measured: includes the guest loop around the yield *)
  h_modeled_cycles : float;
      (** the switch alone: [lfi_yield_direct] + scheduler bookkeeping *)
  h_ns_per_handoff : float;  (** at the model's clock rate *)
}

(** The number the paper's §2 design discussion cites for an optimized
    same-address-space domain switch. *)
let paper_cycles = 50.0

let measure (uarch : Cost_model.t) : result =
  let rt =
    Lfi_runtime.Runtime.create
      ~config:{ Lfi_runtime.Runtime.default_config with uarch }
      ()
  in
  let elf =
    Table5.build Lfi_core.Config.o2 Lfi_workloads.Microbench.yield_prog
  in
  let p1 =
    Lfi_runtime.Runtime.load rt ~arg:2L ~personality:Lfi_runtime.Proc.Lfi elf
  in
  let _p2 =
    Lfi_runtime.Runtime.load rt ~arg:1L ~personality:Lfi_runtime.Proc.Lfi elf
  in
  let _, _, cycles, _ = Lfi_runtime.Runtime.run_one rt p1 in
  let handoffs = 2 * Lfi_workloads.Microbench.yield_iters in
  let per = cycles /. float_of_int handoffs in
  {
    h_uarch = uarch.Cost_model.name;
    h_iters = handoffs;
    h_total_cycles = cycles;
    h_cycles_per_handoff = per;
    h_modeled_cycles =
      uarch.Cost_model.lfi_yield_direct
      +. Lfi_runtime.Runtime.lfi_sched_bookkeeping;
    h_ns_per_handoff = Cost_model.cycles_to_ns uarch per;
  }

let to_json (r : result) : Lfi_telemetry.Json.t =
  let module J = Lfi_telemetry.Json in
  J.Object
    [ ("iters", J.Int r.h_iters); ("total_cycles", J.float r.h_total_cycles);
      ("cycles_per_handoff", J.float r.h_cycles_per_handoff);
      ("switch_cycles", J.float r.h_modeled_cycles);
      ("ns_per_handoff", J.float ~digits:2 r.h_ns_per_handoff) ]
