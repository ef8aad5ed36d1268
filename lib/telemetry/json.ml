(** The repo's one JSON codec: a value type, the only string escaper,
    one printer and one total parser.

    Every report is built as a {!t} and printed here, so the bytes of a
    report are a function of its value alone.  Layout is part of the
    value: a member or element wrapped in {!Nl} starts a new line,
    indented two spaces per nesting level; a container whose first item
    is so marked closes on a line of its own, otherwise it closes right
    after its last item.  Floats carry their number of decimals, and a
    NaN or infinite float prints as [null].

    {!parse} reads any JSON text (RFC 8259) and fails only with
    {!Parse_error}: numbers are checked against the JSON grammar,
    [\uXXXX] escapes (surrogate pairs included) decode to UTF-8, and
    nesting is bounded, so no input raises a stray exception or runs
    the stack out. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float * int  (** value, decimals printed *)
  | String of string
  | Array of t list
  | Object of (string * t) list
  | Nl of t  (** layout only: this member or element starts a new line *)

(** A float with [digits] decimals (default 1). *)
let float ?(digits = 1) v = Float (v, digits)

let option f = function None -> Null | Some v -> f v

(** An object, or an array, with every member on a line of its own. *)
let block kvs = Object (List.map (fun (k, v) -> (k, Nl v)) kvs)
let rows vs = Array (List.map (fun v -> Nl v) vs)

(* ------------------------------------------------------------------ *)
(* Printer                                                             *)
(* ------------------------------------------------------------------ *)

let escape b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when c < ' ' -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let rec write ~compact b depth v =
  let starts_line = function Nl _ -> true | _ -> false in
  let newline d =
    Buffer.add_char b '\n';
    Buffer.add_string b (String.make (2 * d) ' ')
  in
  let container op cl items value_of item =
    Buffer.add_char b op;
    List.iteri
      (fun i x ->
        let nl = starts_line (value_of x) in
        if i > 0 then Buffer.add_string b (if compact || nl then "," else ", ");
        if nl then newline (depth + 1);
        item x)
      items;
    (match items with
    | x :: _ when starts_line (value_of x) -> newline depth
    | _ -> ());
    Buffer.add_char b cl
  in
  match v with
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Int n -> Buffer.add_string b (string_of_int n)
  | Float (x, digits) ->
      if Float.is_finite x then Printf.bprintf b "%.*f" digits x
      else Buffer.add_string b "null"
  | String s -> escape b s
  | Nl v -> write ~compact b depth v
  | Array items ->
      container '[' ']' items Fun.id (write ~compact b (depth + 1))
  | Object members ->
      container '{' '}' members snd (fun (k, v) ->
          escape b k;
          Buffer.add_string b (if compact then ":" else ": ");
          write ~compact b (depth + 1) v)

(** Print [v] into [b]; [~compact:true] drops the space after [,] and
    [:]. *)
let to_buffer ?(compact = false) b v = write ~compact b 0 v

let to_string ?compact v =
  let b = Buffer.create 256 in
  to_buffer ?compact b v;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string

(* deeper nesting is refused rather than recursed into *)
let max_depth = 512

let add_utf8 b code =
  let byte n = Buffer.add_char b (Char.unsafe_chr n) in
  if code < 0x80 then byte code
  else if code < 0x800 then begin
    byte (0xc0 lor (code lsr 6));
    byte (0x80 lor (code land 0x3f))
  end
  else if code < 0x10000 then begin
    byte (0xe0 lor (code lsr 12));
    byte (0x80 lor ((code lsr 6) land 0x3f));
    byte (0x80 lor (code land 0x3f))
  end
  else begin
    byte (0xf0 lor (code lsr 18));
    byte (0x80 lor ((code lsr 12) land 0x3f));
    byte (0x80 lor ((code lsr 6) land 0x3f));
    byte (0x80 lor (code land 0x3f))
  end

let parse (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at %d" msg !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let skip_ws () =
    while !pos < n && String.contains " \t\n\r" s.[!pos] do
      incr pos
    done
  in
  let expect c =
    if peek () = c then incr pos else fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let m = String.length word in
    if !pos + m <= n && String.sub s !pos m = word then begin
      pos := !pos + m;
      v
    end
    else fail "bad literal"
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let code = ref 0 in
    for i = !pos to !pos + 3 do
      let d =
        match s.[i] with
        | '0' .. '9' as c -> Char.code c - 48
        | 'a' .. 'f' as c -> Char.code c - 87
        | 'A' .. 'F' as c -> Char.code c - 55
        | _ -> fail "bad \\u escape"
      in
      code := (!code lsl 4) lor d
    done;
    pos := !pos + 4;
    !code
  in
  let string_body () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
          let e = peek () in
          incr pos;
          (match e with
          | '"' | '\\' | '/' -> Buffer.add_char b e
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'u' ->
              let hi = hex4 () in
              if hi >= 0xdc00 && hi <= 0xdfff then fail "lone low surrogate"
              else if hi >= 0xd800 && hi <= 0xdbff then begin
                if peek () <> '\\' then fail "lone high surrogate";
                incr pos;
                expect 'u';
                let lo = hex4 () in
                if lo < 0xdc00 || lo > 0xdfff then fail "lone high surrogate";
                add_utf8 b (0x10000 + ((hi - 0xd800) lsl 10) + (lo - 0xdc00))
              end
              else add_utf8 b hi
          | _ -> fail "bad escape");
          go ()
      | c when c < ' ' -> fail "control character in string"
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ()
  in
  (* -? (0 | [1-9][0-9]* ) (.[0-9]+)? ([eE][+-]?[0-9]+)? *)
  let number () =
    let start = !pos in
    let digits () =
      let d = !pos in
      while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do
        incr pos
      done;
      if !pos = d then fail "bad number";
      !pos - d
    in
    if peek () = '-' then incr pos;
    if peek () = '0' then incr pos else ignore (digits ());
    let decimals =
      if peek () = '.' then begin
        incr pos;
        digits ()
      end
      else 0
    in
    let exponent = peek () = 'e' || peek () = 'E' in
    if exponent then begin
      incr pos;
      if peek () = '+' || peek () = '-' then incr pos;
      ignore (digits ())
    end;
    let text = String.sub s start (!pos - start) in
    match int_of_string_opt text with
    | Some i when decimals = 0 && not exponent -> Int i
    | _ -> Float (float_of_string text, decimals)
  in
  let items close item =
    skip_ws ();
    if peek () = close then begin
      incr pos;
      []
    end
    else
      let rec go acc =
        let x = item () in
        skip_ws ();
        match peek () with
        | ',' ->
            incr pos;
            go (x :: acc)
        | c when c = close ->
            incr pos;
            List.rev (x :: acc)
        | _ -> fail (Printf.sprintf "expected , or %c" close)
      in
      go []
  in
  let rec value depth =
    if depth > max_depth then fail "nesting too deep";
    skip_ws ();
    match peek () with
    | '{' ->
        incr pos;
        Object (items '}' (fun () ->
            skip_ws ();
            let k = string_body () in
            skip_ws ();
            expect ':';
            (k, value (depth + 1))))
    | '[' ->
        incr pos;
        Array (items ']' (fun () -> value (depth + 1)))
    | '"' -> String (string_body ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> number ()
    | _ -> fail "unexpected character"
  in
  let v = value 0 in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* ------------------------------------------------------------------ *)
(* Readers: typed access that fails with [Parse_error]                 *)
(* ------------------------------------------------------------------ *)

let field name = function
  | Object kvs -> (
      match List.assoc_opt name kvs with
      | Some v -> v
      | None -> raise (Parse_error ("missing field " ^ name)))
  | _ -> raise (Parse_error ("not an object at field " ^ name))

let str = function String s -> s | _ -> raise (Parse_error "expected string")

(** A number; [null] reads as NaN, the printer's image of it. *)
let num = function
  | Int i -> float_of_int i
  | Float (f, _) -> f
  | Null -> Float.nan
  | _ -> raise (Parse_error "expected number")

let int = function
  | Int i -> i
  | Float (f, _) when Float.is_integer f && Float.abs f < 0x1p62 ->
      int_of_float f
  | _ -> raise (Parse_error "expected integer")

let boolean = function Bool b -> b | _ -> raise (Parse_error "expected bool")
let arr = function Array l -> l | _ -> raise (Parse_error "expected array")

let obj = function
  | Object kvs -> kvs
  | _ -> raise (Parse_error "expected object")
