(** The [scallop serve] line protocol, parsed totally.

    One request per line; this module classifies a raw line into a typed
    {!request} or a typed {!Scallop_core.Exec_error.t} — it never raises
    and never falls through to undefined behavior, whatever bytes arrive.
    The serving loop can therefore answer {e every} line with either the
    verb's effect or a [done <id> error …] reply: junk bytes, oversized
    lines, and truncated verb arguments are all protocol errors, not
    crashes or silent drops.

    Anything that does not start with a known verb is a {!Run} request —
    the legacy one-shot path that compiles the line as a Scallop program
    (whose own parser produces its own typed diagnostics).

    {!read_request} feeds the parser from a channel through a bounded
    line reader, so the whole path from raw input bytes to a typed
    request lives here. *)

open Scallop_core

type request =
  | Open of { sid : string; expect_hash : string option; program : string }
  | Assert of { sid : string; prob : float option; pred : string; tuple : Tuple.t }
  | Retract of { sid : string; pred : string; tuple : Tuple.t }
  | Query of { sid : string; outputs : string list option }
  | Close of { sid : string }
  | Stats
  | Scrub
  | Repl_status
  | Repl_promote of { epoch : int option }
  | Run of { program : string }  (** legacy one-shot query *)

let invalid_input fmt = Session.invalid_input fmt

(* ---- lexical helpers ----------------------------------------------------------- *)

(* The k-th-token-onward suffix of a protocol line (verbs keep raw text —
   programs and fact atoms contain spaces). *)
let drop_tokens k s =
  let n = String.length s in
  let rec skip_ws i = if i < n && s.[i] = ' ' then skip_ws (i + 1) else i in
  let rec skip_tok i = if i < n && s.[i] <> ' ' then skip_tok (i + 1) else i in
  let rec go k i = if k = 0 then i else go (k - 1) (skip_ws (skip_tok i)) in
  let i = go k (skip_ws 0) in
  String.sub s i (n - i)

(* Fact atoms for the stateful verbs: "0.9::edge(0, 1)" or "edge(0, 1)".
   Values: true/false, integers (i32, or i64 past the i32 range), floats
   (f64), "quoted" or bare strings; [Incr] coerces them to the relation's
   declared column types.  A quoted string may hold [,] and [::], as the
   rows [serve] prints do; escapes are not interpreted, so every double
   quote opens or closes a string. *)
let parse_value (s : string) : Value.t =
  let s = String.trim s in
  if String.equal s "true" then Value.bool true
  else if String.equal s "false" then Value.bool false
  else
    match int_of_string_opt s with
    | Some n -> Value.int (if Value.wrap_int Value.I32 n = n then Value.I32 else Value.I64) n
    | None -> (
        match float_of_string_opt s with
        | Some f -> Value.float Value.F64 f
        | None ->
            let n = String.length s in
            if n >= 2 && s.[0] = '"' && s.[n - 1] = '"' then
              Value.string (String.sub s 1 (n - 2))
            else Value.string s)

(* The first [c] in [s] from index [i] on that lies outside double quotes. *)
let index_unquoted s c i =
  let rec go quoted i =
    if i >= String.length s then None
    else if s.[i] = '"' then go (not quoted) (i + 1)
    else if s.[i] = c && not quoted then Some i
    else go quoted (i + 1)
  in
  go false i

(* [s] from index [i] on, cut at every [c] outside double quotes. *)
let rec split_unquoted s c i =
  match index_unquoted s c i with
  | Some j -> String.sub s i (j - i) :: split_unquoted s c (j + 1)
  | None -> [ String.sub s i (String.length s - i) ]

let parse_fact_atom (s : string) : float option * string * Tuple.t =
  let s = String.trim s in
  let prob, rest =
    match index_unquoted s ':' 0 with
    | Some i when i + 1 < String.length s && s.[i + 1] = ':' -> (
        let p = String.sub s 0 i in
        match float_of_string_opt p with
        | Some f -> (Some f, String.sub s (i + 2) (String.length s - i - 2))
        | None -> invalid_input "bad probability %S in fact %S" p s)
    | _ -> (None, s)
  in
  let n = String.length rest in
  match String.index_opt rest '(' with
  | None -> invalid_input "bad fact %S: expected pred(v1, ...)" s
  | Some _ when n = 0 || rest.[n - 1] <> ')' ->
      invalid_input "bad fact %S: missing closing paren" s
  | Some l ->
      let pred = String.trim (String.sub rest 0 l) in
      if String.equal pred "" then invalid_input "bad fact %S: empty predicate" s;
      let inner = String.sub rest (l + 1) (n - l - 2) in
      let vals =
        if String.trim inner = "" then [] else List.map parse_value (split_unquoted inner ',' 0)
      in
      (prob, pred, Tuple.of_list vals)

let max_sid_len = 256

let check_sid sid =
  if String.length sid > max_sid_len then
    invalid_input "session id of %d bytes exceeds the %d-byte limit" (String.length sid)
      max_sid_len

(* ---- the parser ------------------------------------------------------------------ *)

let default_max_line = 1 lsl 20

(** [parse line] classifies one protocol line.  Total: every possible
    [line] yields either a request or a typed error — lines over
    [max_line] bytes, lines containing control bytes (tab excepted; a
    newline cannot occur in a line), and known verbs with missing,
    truncated, or malformed arguments are all [Error _].  Unknown leading
    tokens fall through to {!Run}. *)
let parse ?(max_line = default_max_line) (line : string) : (request, Exec_error.t) result =
  try
    if String.length line > max_line then
      invalid_input "request line of %d bytes exceeds the %d-byte limit"
        (String.length line) max_line;
    String.iter
      (fun c ->
        let code = Char.code c in
        if code < 32 && not (Char.equal c '\t') then
          invalid_input "request contains control byte 0x%02x" code)
      line;
    let words =
      String.split_on_char ' ' (String.trim line)
      |> List.filter (fun w -> not (String.equal w ""))
    in
    Ok
      (match words with
      | [] -> invalid_input "empty request"
      | "open" :: sid :: _ ->
          check_sid sid;
          let rest = String.trim (drop_tokens 2 line) in
          let expect_hash, program =
            if String.length rest >= 5 && String.equal (String.sub rest 0 5) "hash=" then begin
              let i =
                match String.index_opt rest ' ' with
                | Some i -> i
                | None -> String.length rest
              in
              let h = String.sub rest 5 (i - 5) in
              if String.equal h "" then invalid_input "open %s: empty hash= argument" sid;
              (Some h, String.sub rest i (String.length rest - i))
            end
            else (None, rest)
          in
          Open { sid; expect_hash; program }
      | [ "open" ] -> invalid_input "open: missing session id"
      | "assert" :: sid :: _ :: _ ->
          check_sid sid;
          let prob, pred, tuple = parse_fact_atom (drop_tokens 2 line) in
          (match prob with
          | Some p when not (p >= 0.0 && p <= 1.0) ->
              invalid_input "assert: probability %g is not a number in [0, 1]" p
          | _ -> ());
          Assert { sid; prob; pred; tuple }
      | "assert" :: rest ->
          invalid_input "assert: expected 'assert <sid> [<prob>::]<pred>(<args>)', got %d argument%s"
            (List.length rest)
            (if List.length rest = 1 then "" else "s")
      | "retract" :: sid :: _ :: _ ->
          check_sid sid;
          let prob, pred, tuple = parse_fact_atom (drop_tokens 2 line) in
          (match prob with
          | Some _ -> invalid_input "retract takes no probability"
          | None -> ());
          Retract { sid; pred; tuple }
      | "retract" :: rest ->
          invalid_input "retract: expected 'retract <sid> <pred>(<args>)', got %d argument%s"
            (List.length rest)
            (if List.length rest = 1 then "" else "s")
      | "query" :: sid :: rest ->
          check_sid sid;
          Query { sid; outputs = (match rest with [] -> None | l -> Some l) }
      | [ "query" ] -> invalid_input "query: missing session id"
      | [ "close"; sid ] ->
          check_sid sid;
          Close { sid }
      | "close" :: rest ->
          invalid_input "close: expected 'close <sid>', got %d argument%s" (List.length rest)
            (if List.length rest = 1 then "" else "s")
      | [ "stats" ] -> Stats
      | "stats" :: _ -> invalid_input "stats takes no arguments"
      | [ "scrub" ] -> Scrub
      | "scrub" :: _ -> invalid_input "scrub takes no arguments"
      | [ "repl"; "status" ] -> Repl_status
      | [ "repl"; "promote" ] -> Repl_promote { epoch = None }
      | [ "repl"; "promote"; arg ]
        when String.length arg > 6 && String.equal (String.sub arg 0 6) "epoch=" -> (
          match int_of_string_opt (String.sub arg 6 (String.length arg - 6)) with
          | Some e when e > 0 -> Repl_promote { epoch = Some e }
          | _ -> invalid_input "repl promote: bad epoch %S" arg)
      | "repl" :: _ ->
          invalid_input "repl: expected 'repl status' or 'repl promote [epoch=N]'"
      | _ -> Run { program = line })
  with Session.Error e -> Error e

(* ---- the bounded line reader ----------------------------------------------------- *)

(* Input is consumed a chunk at a time (one channel lock per chunk, not per
   byte), but a line keeps at most [max_line] bytes: the overflow up to its
   newline is scanned and dropped, so an unbounded request never sits in
   memory. *)
type reader = {
  ic : in_channel;
  max_line : int;
  chunk : Bytes.t;
  mutable pos : int;  (** next unconsumed byte of [chunk] *)
  mutable len : int;  (** valid bytes in [chunk] *)
  line : Buffer.t;  (** the line being assembled, at most [max_line] bytes *)
}

(** [chunk_size] (default 64 KiB) is how much one channel read may take;
    tests shrink it to push lines across chunk boundaries. *)
let reader ?(max_line = default_max_line) ?(chunk_size = 65536) ic =
  if chunk_size < 1 then invalid_arg "Protocol.reader: chunk_size must be >= 1";
  { ic; max_line; chunk = Bytes.create chunk_size; pos = 0; len = 0; line = Buffer.create 128 }

(** [read_line r] is the next line without its newline, paired with
    whether it was longer than [max_line] bytes (then only the first
    [max_line] are kept).  A final line with no newline still counts;
    [None] at end of input. *)
let read_line r : (string * bool) option =
  Buffer.clear r.line;
  let rec go truncated =
    if r.pos = r.len then begin
      r.pos <- 0;
      r.len <- In_channel.input r.ic r.chunk 0 (Bytes.length r.chunk)
    end;
    if r.len = 0 then
      if Buffer.length r.line = 0 && not truncated then None
      else Some (Buffer.contents r.line, truncated)
    else begin
      let start = r.pos in
      let stop = ref start in
      while !stop < r.len && Bytes.unsafe_get r.chunk !stop <> '\n' do
        incr stop
      done;
      let n = !stop - start in
      let room = Int.max 0 (r.max_line - Buffer.length r.line) in
      Buffer.add_subbytes r.line r.chunk start (Int.min n room);
      let truncated = truncated || n > room in
      if !stop < r.len then begin
        r.pos <- !stop + 1;
        Some (Buffer.contents r.line, truncated)
      end
      else begin
        r.pos <- r.len;
        go truncated
      end
    end
  in
  go false

(** [read_request r] reads up to the next non-blank line and classifies
    it: a line over the limit is a typed [Invalid_input] (its bytes were
    never buffered), anything else goes through {!parse}.  [None] at end
    of input. *)
let rec read_request r : (request, Exec_error.t) result option =
  match read_line r with
  | None -> None
  | Some (line, false) when String.trim line = "" -> read_request r
  | Some (_, true) ->
      Some
        (Error
           (Exec_error.Invalid_input
              {
                msg =
                  Fmt.str "request line exceeds the %d-byte limit; discarded" r.max_line;
              }))
  | Some (line, false) -> Some (parse ~max_line:r.max_line line)
