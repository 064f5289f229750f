(** Smoke check: every BENCH_*.json referenced by ROADMAP.md or the bench
    harness exists at the repo root and parses as JSON.

    Benchmark baselines are part of the contract between PRs ("no worse than
    the committed entry"), so a reference to a file that was never
    regenerated — or that a partial bench run left truncated — should fail
    loudly here rather than silently weakening the next comparison. *)

(* The action runs inside _build/default/test; the sources and the committed
   BENCH files live at the repo root. *)
let repo_root =
  let cwd = Sys.getcwd () in
  let marker = "/_build/" in
  let rec find i =
    if i + String.length marker > String.length cwd then None
    else if String.sub cwd i (String.length marker) = marker then Some (String.sub cwd 0 i)
    else find (i + 1)
  in
  match find 0 with Some root -> root | None -> cwd

let read_file path =
  let ic = open_in_bin path in
  let s = In_channel.input_all ic in
  close_in ic;
  s

(* ---- minimal JSON acceptor (no external JSON dependency in this tree) -------- *)

exception Bad of string

let parse_json (s : string) : unit =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some x when x = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word then
      pos := !pos + String.length word
    else fail (Printf.sprintf "expected %s" word)
  in
  let string_lit () =
    expect '"';
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') ->
              advance ();
              go ()
          | Some 'u' ->
              advance ();
              for _ = 1 to 4 do
                match peek () with
                | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
                | _ -> fail "bad \\u escape"
              done;
              go ()
          | _ -> fail "bad escape")
      | Some c when Char.code c < 0x20 -> fail "control char in string"
      | Some _ ->
          advance ();
          go ()
    in
    go ()
  in
  let number () =
    let digits () =
      let start = !pos in
      let rec go () =
        match peek () with
        | Some '0' .. '9' ->
            advance ();
            go ()
        | _ -> ()
      in
      go ();
      if !pos = start then fail "expected digit"
    in
    (match peek () with Some '-' -> advance () | _ -> ());
    digits ();
    (match peek () with
    | Some '.' ->
        advance ();
        digits ()
    | _ -> ());
    match peek () with
    | Some ('e' | 'E') ->
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ()
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then advance ()
        else
          let rec members () =
            skip_ws ();
            string_lit ();
            skip_ws ();
            expect ':';
            value ();
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ()
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          members ()
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then advance ()
        else
          let rec elements () =
            value ();
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements ()
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          elements ()
    | Some '"' -> string_lit ()
    | Some ('-' | '0' .. '9') -> number ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | _ -> fail "expected a JSON value"
  in
  value ();
  skip_ws ();
  if !pos <> n then fail "trailing garbage"

(* ---- collect BENCH_*.json references ------------------------------------------ *)

let is_name_char = function
  | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' -> true
  | _ -> false

let bench_refs text =
  let refs = ref [] in
  let n = String.length text in
  let i = ref 0 in
  while !i < n do
    (match String.index_from_opt text !i 'B' with
    | None -> i := n
    | Some j ->
        if j + 6 <= n && String.sub text j 6 = "BENCH_" then begin
          let e = ref (j + 6) in
          while !e < n && is_name_char text.[!e] do
            incr e
          done;
          if !e + 5 <= n && String.sub text !e 5 = ".json" then begin
            let name = String.sub text j (!e + 5 - j) in
            if not (List.mem name !refs) then refs := name :: !refs
          end;
          i := j + 1
        end
        else i := j + 1);
  done;
  List.rev !refs

(* ---- columnar audit of BENCH_interp.json ------------------------------------- *)

let count_substring (text : string) (sub : string) : int =
  let n = String.length text and m = String.length sub in
  let count = ref 0 in
  let i = ref 0 in
  while !i + m <= n do
    if String.sub text !i m = sub then incr count;
    incr i
  done;
  !count

(* The numeric values following every ["key": ] in [text], in order; an
   occurrence whose value is not a number reads as [None]. *)
let json_number_fields (text : string) (key : string) : float option list =
  let probe = Printf.sprintf "%S:" key in
  let n = String.length text and m = String.length probe in
  let rec find i = if i + m > n then None else if String.sub text i m = probe then Some (i + m) else find (i + 1) in
  let rec from i acc =
    match find i with
    | None -> List.rev acc
    | Some start ->
        let e = ref start in
        while
          !e < n
          && (match text.[!e] with ' ' | '-' | '+' | '.' | 'e' | 'E' | '0' .. '9' -> true | _ -> false)
        do
          incr e
        done;
        from !e (float_of_string_opt (String.trim (String.sub text start (!e - start))) :: acc)
  in
  from 0 []

(* The numeric value following the first ["key": ] in [text]. *)
let json_number_field (text : string) (key : string) : float option =
  match json_number_fields text key with v :: _ -> v | [] -> None

(** The columnar executor rides on BENCH_interp.json: both engine variants
    must be represented (row-oriented baseline and columnar twin of each
    workload), and the pinned TC-500 speedup must stay at or above the 10x
    gate the bench harness enforces ([col_gate] in bench/main.ml).  A
    regeneration that silently dropped the columnar rows — or pinned a
    regressed multiple — fails here instead of weakening the contract. *)
let audit_interp_columnar (text : string) : string list =
  let errs = ref [] in
  let nag msg = errs := msg :: !errs in
  let col_true = count_substring text "\"columnar\": true" in
  let col_false = count_substring text "\"columnar\": false" in
  if col_true < 4 then
    nag (Printf.sprintf "expected >= 4 columnar rows, found %d" col_true);
  if col_false < 4 then
    nag (Printf.sprintf "expected >= 4 row-engine rows, found %d" col_false);
  (match json_number_field text "tc500_columnar_speedup" with
  | None -> nag "missing numeric tc500_columnar_speedup field"
  | Some x when x < 10.0 ->
      nag (Printf.sprintf "tc500_columnar_speedup %.2f below the pinned 10x gate" x)
  | Some _ -> ());
  List.rev !errs

(** Sessions ride on BENCH_incr.json: an update batch plus a session query
    against a cold run on the same facts.  The file must record the gate
    the bench harness enforces (at most 1.25, [gate] in bench/main.ml) and
    its worst ratio, every row must sit within the gate, and no row may
    come from the deleted delta-maintenance engine.  A regeneration with a
    failing or missing gate fails here. *)
let audit_incr_sessions (text : string) : string list =
  let errs = ref [] in
  let nag msg = errs := msg :: !errs in
  if count_substring text "\"engine\": \"delta\"" > 0 then
    nag "a row reports the deleted delta engine";
  (match json_number_field text "session_over_cold_gate" with
  | None -> nag "missing numeric session_over_cold_gate field"
  | Some gate ->
      if gate > 1.25 then
        nag (Printf.sprintf "session_over_cold_gate %.2f is looser than 1.25" gate);
      let rows = json_number_fields text "session_over_cold" in
      if rows = [] then nag "no session_over_cold rows";
      List.iteri
        (fun i -> function
          | None -> nag (Printf.sprintf "row %d: non-numeric session_over_cold" i)
          | Some r when r > gate ->
              nag (Printf.sprintf "row %d: session_over_cold %.3f above the %.2f gate" i r gate)
          | Some _ -> ())
        rows;
      match json_number_field text "session_over_cold_max" with
      | None -> nag "missing numeric session_over_cold_max field"
      | Some worst when worst > gate ->
          nag (Printf.sprintf "session_over_cold_max %.3f above the %.2f gate" worst gate)
      | Some _ -> ());
  List.rev !errs

let () =
  let sources = [ "ROADMAP.md"; Filename.concat "bench" "main.ml" ] in
  let referenced =
    List.concat_map
      (fun rel ->
        let path = Filename.concat repo_root rel in
        if Sys.file_exists path then bench_refs (read_file path)
        else begin
          Fmt.epr "smoke_bench_files: missing source %s@." path;
          exit 1
        end)
      sources
    |> List.sort_uniq compare
  in
  if referenced = [] then begin
    Fmt.epr "smoke_bench_files: no BENCH_*.json references found (scan broken?)@.";
    exit 1
  end;
  let failures = ref 0 in
  List.iter
    (fun name ->
      let path = Filename.concat repo_root name in
      if not (Sys.file_exists path) then begin
        incr failures;
        Fmt.epr "smoke_bench_files: %s is referenced but not committed@." name
      end
      else
        let text = read_file path in
        match parse_json text with
        | () ->
            let audit_errs =
              match name with
              | "BENCH_interp.json" -> audit_interp_columnar text
              | "BENCH_incr.json" -> audit_incr_sessions text
              | _ -> []
            in
            if audit_errs = [] then Fmt.pr "smoke_bench_files: %s OK@." name
            else
              List.iter
                (fun msg ->
                  incr failures;
                  Fmt.epr "smoke_bench_files: %s: %s@." name msg)
                audit_errs
        | exception Bad msg ->
            incr failures;
            Fmt.epr "smoke_bench_files: %s does not parse: %s@." name msg)
    referenced;
  if !failures > 0 then exit 1;
  Fmt.pr "smoke_bench_files: %d referenced baseline file(s) present and well-formed@."
    (List.length referenced)
