(** Machine-speed calibration.

    The benchmark runs on shared hosts whose speed drifts by ±20 % over
    tens of seconds as other tenants load the memory system: a 30 s run
    of [lib-warm] measured anywhere between 2.8k and 3.8k req/s on the
    reference machine, whatever the seed.  A fixed kernel interleaved
    with the measured work slows down with it: over 200 s of [lib-warm]
    its speed and the request rate, each taken over 15 s windows,
    correlated at 0.97, and the ratio of the two varied 3.8 % (IQR over
    median) where the request rate alone varied 13 %.

    So every measured phase runs the kernel between work items for a
    fixed share of its time, and end-to-end host times are reported at
    the reference speed: measured time divided by the phase's slowdown,
    the kernel's measured time per call over {!nominal_ns}.  The kernel
    is plain OCaml that shares no code with the system under test
    (closure dispatch over a 256 KiB array, like an interpreter's inner
    loop), so a change to the system moves the work but not the kernel. *)

let now_ns = Tracer.now_ns

let table = Array.make (1 lsl 15) 1
let mask = (1 lsl 15) - 1

let ops =
  Array.init 16 (fun k i ->
      let j = (i * (k + 1)) land mask in
      table.(j) <- table.(j) + k;
      table.((j + 7) land mask))

(** One kernel call: 100k dispatches, about 1 ms on the reference
    machine. *)
let kernel () =
  let x = ref 88172645463325252 and s = ref 0 in
  for _ = 1 to 100_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    s := !s + ops.(!x land 15) (!x lsr 20)
  done;
  ignore (Sys.opaque_identity !s)

(** Time per kernel call at the reference speed: about its median on
    the reference machine.  It only sets the scale of the figures. *)
let nominal_ns = 1_000_000

(** Share of a phase's time spent in the kernel. *)
let share = 0.05

type t = {
  start : int;
  mutable kernel_ns : int;
  mutable calls : int;
}

let create () = { start = now_ns (); kernel_ns = 0; calls = 0 }

(** Run kernel calls until they have taken [share] of the time since
    [create]; call it between work items, outside their timers. *)
let pace c =
  let target () =
    int_of_float (share *. float_of_int (now_ns () - c.start))
  in
  while c.calls = 0 || c.kernel_ns < target () do
    let t0 = now_ns () in
    kernel ();
    c.kernel_ns <- c.kernel_ns + (now_ns () - t0);
    c.calls <- c.calls + 1
  done

(** How much slower the machine ran than the reference speed, over the
    kernel calls so far (> 1 is slower). *)
let slowdown c =
  if c.calls = 0 then invalid_arg "Calib.slowdown: no kernel calls";
  float_of_int c.kernel_ns /. float_of_int c.calls /. float_of_int nominal_ns
