(** Structured trace events in Chrome trace-event JSON.

    The output loads directly into [chrome://tracing] and Perfetto.
    Timestamps are {e simulated cycles}, not wall time: the emulator's
    cycle counter is a deterministic function of the executed
    instruction stream, so two runs of the same workload produce
    byte-identical trace files — which is what makes traces diffable
    and testable.  (The [ts] field is nominally microseconds; viewers
    only use it as a linear axis, so "1 us" reads as "1 cycle".)

    Events are printed through {!Json} straight into a single buffer
    as they are emitted, so no event objects are retained.  The runtime
    gives every sandbox its own track by using the sandbox pid as the
    Chrome [tid]. *)

type t = { buf : Buffer.t; mutable events : int }

let create () = { buf = Buffer.create 4096; events = 0 }

let event t ~ph ~name ~cat ~(ts : float) ~pid ~tid rest =
  if t.events > 0 then Buffer.add_string t.buf ",\n";
  t.events <- t.events + 1;
  Json.to_buffer t.buf
    (Object
       ([ ("ph", Json.String ph); ("name", Json.String name); ("cat", Json.String cat);
          ("ts", Json.Float (ts, 3)); ("pid", Json.Int pid); ("tid", Json.Int tid) ]
       @ rest))

let args = function [] -> [] | a -> [ ("args", Json.Object a) ]

(** A span with a duration ([ph = "X"] complete event). *)
let complete t ~name ~cat ~ts ~(dur : float) ~pid ~tid ~args:a =
  event t ~ph:"X" ~name ~cat ~ts ~pid ~tid (("dur", Json.Float (dur, 3)) :: args a)

(** A zero-duration marker on one thread's track. *)
let instant t ~name ~cat ~ts ~pid ~tid ~args:a =
  event t ~ph:"i" ~name ~cat ~ts ~pid ~tid (("s", Json.String "t") :: args a)

(** A counter sample ([ph = "C"]): Perfetto renders one stacked-area
    track per counter name, one series per arg key. *)
let counter t ~name ~cat ~ts ~pid ~args:a =
  event t ~ph:"C" ~name ~cat ~ts ~pid ~tid:0 [ ("args", Json.Object a) ]

(* Metadata events name the process and thread tracks in the viewer. *)

let metadata t ~name ~pid ~tid ~value =
  event t ~ph:"M" ~name ~cat:"__metadata" ~ts:0.0 ~pid ~tid
    [ ("args", Json.Object [ ("name", Json.String value) ]) ]

let process_name t ~pid ~name = metadata t ~name:"process_name" ~pid ~tid:0 ~value:name
let thread_name t ~pid ~tid ~name = metadata t ~name:"thread_name" ~pid ~tid ~value:name

let num_events t = t.events

let to_string t : string =
  Printf.sprintf "{\"traceEvents\": [\n%s\n], \"displayTimeUnit\": \"ms\"}\n"
    (Buffer.contents t.buf)

let write_file t path =
  let oc = open_out path in
  output_string oc (to_string t);
  close_out oc
