(** In-memory span recorder for the traced run.

    A span is one call into a layer, timed on the host's monotonic
    clock: a name, a start and an end (ns), the span that was open when
    it started (its parent), and an id shared by every span of one
    request or program.  Spans stay in memory until the run ends, so
    recording costs two clock reads and one record per call; they are
    written out afterwards as a Chrome trace. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type span = {
  name : string;
  id : int;  (** request or program this span belongs to *)
  parent : int;  (** index of the enclosing span, -1 for a root *)
  start : int;
  mutable stop : int;
}

type t = {
  mutable spans : span array;
  mutable len : int;
  mutable stack : int list;  (** open spans, innermost first *)
  t_start : int;
  mutable t_stop : int;
}

let create () =
  { spans = [||]; len = 0; stack = []; t_start = now_ns (); t_stop = -1 }

(** End the traced interval; its length is the run's traced wall time. *)
let finish t =
  if t.stack <> [] then invalid_arg "Tracer.finish: span still open";
  t.t_stop <- now_ns ()

let enter t ~id name =
  if t.len = Array.length t.spans then begin
    let bigger =
      Array.make (max 1024 (2 * t.len))
        { name = ""; id = 0; parent = -1; start = 0; stop = 0 }
    in
    Array.blit t.spans 0 bigger 0 t.len;
    t.spans <- bigger
  end;
  let parent = match t.stack with i :: _ -> i | [] -> -1 in
  let i = t.len in
  t.spans.(i) <- { name; id; parent; start = now_ns (); stop = -1 };
  t.len <- i + 1;
  t.stack <- i :: t.stack;
  i

let leave t i =
  let stop = now_ns () in
  match t.stack with
  | j :: rest when j = i ->
      t.spans.(i).stop <- stop;
      t.stack <- rest
  | _ -> invalid_arg "Tracer.leave: not the innermost open span"

let with_span t ~id name f =
  let i = enter t ~id name in
  match f () with
  | v ->
      leave t i;
      v
  | exception e ->
      leave t i;
      raise e

(** Words allocated so far on the OCaml heap (minor plus direct major
    allocations; promotions are not new words). *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* What one [alloc_words] call allocates itself, so that a delta
   measures only the call between two readings. *)
let alloc_self =
  let a = alloc_words () in
  alloc_words () -. a

(** [with_span] that also returns the words [f] allocated.  The count
    is a deterministic function of the inputs, unlike the time. *)
let with_span_alloc t ~id name f =
  let i = enter t ~id name in
  let w0 = alloc_words () in
  match f () with
  | v ->
      let w1 = alloc_words () in
      leave t i;
      (v, w1 -. w0 -. alloc_self)
  | exception e ->
      leave t i;
      raise e

let spans t = Array.sub t.spans 0 t.len

(* Length of the union of [intervals], each clipped to [lo, hi). *)
let covered ~lo ~hi (intervals : (int * int) list) =
  List.sort compare intervals
  |> List.fold_left
       (fun (total, last_end) (a, b) ->
         let a = max a last_end and b = min b hi in
         if b > a then (total + (b - a), b) else (total, last_end))
       (0, lo)
  |> fst

(** Self time of every span: its duration minus the part of it that
    its child spans cover. *)
let self_times (spans : span array) : int array =
  let children = Array.make (Array.length spans) [] in
  Array.iteri
    (fun i s ->
      if s.parent >= 0 then
        children.(s.parent) <- (spans.(i).start, spans.(i).stop) :: children.(s.parent))
    spans;
  Array.mapi
    (fun i s ->
      s.stop - s.start - covered ~lo:s.start ~hi:s.stop children.(i))
    spans

(** Wall time of [lo, hi) that no root span covers. *)
let uncovered ~lo ~hi (spans : span array) =
  let roots =
    Array.to_list spans
    |> List.filter (fun s -> s.parent < 0)
    |> List.map (fun s -> (s.start, s.stop))
  in
  hi - lo - covered ~lo ~hi roots

type account = {
  wall_ns : int;
  self_by_name : (string * (int * int)) list;
      (** name → (spans, total self ns), sorted by name *)
  other_ns : int;
      (** wall time outside every layer span: the self time of the
          benchmark's own spans plus the time no span covers *)
}

let is_layer name = not (String.length name >= 6 && String.sub name 0 6 = "bench.")

(** Split the traced wall time into layer self times and [other_ns].
    Layer self times plus [other_ns] equal [wall_ns] exactly when every
    child lies inside its parent, as the recorder guarantees. *)
let account t : account =
  if t.t_stop < 0 then invalid_arg "Tracer.account: call finish first";
  let spans = spans t in
  let self = self_times spans in
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i s ->
      let n, tot = Option.value (Hashtbl.find_opt tbl s.name) ~default:(0, 0) in
      Hashtbl.replace tbl s.name (n + 1, tot + self.(i)))
    spans;
  let self_by_name =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare
  in
  let bench_self =
    List.fold_left
      (fun acc (name, (_, tot)) -> if is_layer name then acc else acc + tot)
      0 self_by_name
  in
  {
    wall_ns = t.t_stop - t.t_start;
    self_by_name;
    other_ns = bench_self + uncovered ~lo:t.t_start ~hi:t.t_stop spans;
  }

(** Durations (ns) of every span called [name]. *)
let durations t name : float array =
  let out = ref [] in
  for i = t.len - 1 downto 0 do
    let s = t.spans.(i) in
    if s.name = name then out := float_of_int (s.stop - s.start) :: !out
  done;
  Array.of_list !out

(** Write every span as a Chrome trace ("X" events, µs since the trace
    started), loadable in Perfetto.  Span names are the benchmark's own
    dotted identifiers, so they need no escaping. *)
let write_chrome t (file : string) =
  let oc = open_out file in
  output_string oc "{\"traceEvents\": [\n";
  for i = 0 to t.len - 1 do
    let s = t.spans.(i) in
    Printf.fprintf oc
      "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %d}}"
      (if i = 0 then "" else ",\n")
      s.name
      (float_of_int (s.start - t.t_start) /. 1e3)
      (float_of_int (s.stop - s.start) /. 1e3)
      s.id
  done;
  output_string oc "\n]}\n";
  close_out oc
