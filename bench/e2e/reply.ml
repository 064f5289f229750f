(** Parser for [scallop serve] replies: zero or more [out <id> <row>] lines
    followed by exactly one [done <id> ok|error ...] line per request, in
    request order. *)

type line =
  | Out of int * string  (** request id, row text *)
  | Done of int * bool * string  (** request id, ok, rest of the status *)
  | Other of string

let split_word s =
  match String.index_opt s ' ' with
  | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  | None -> (s, "")

let classify (l : string) : line =
  match split_word l with
  | "out", rest -> (
      let id, row = split_word rest in
      match int_of_string_opt id with Some n -> Out (n, row) | None -> Other l)
  | "done", rest -> (
      let id, status = split_word rest in
      match (int_of_string_opt id, split_word status) with
      | Some n, ("ok", more) -> Done (n, true, more)
      | Some n, ("error", more) -> Done (n, false, more)
      | _ -> Other l)
  | _ -> Other l

(** A normalized output row: predicate, integer arguments, and the tag as
    an integer number of millionths ([true] is 1000000, [false] 0; a
    probability printed with six decimals is exact in this unit). *)
type row = { pred : string; args : int list; tag : int }

let tag_of_string s =
  match s with
  | "true" -> Some 1_000_000
  | "false" -> Some 0
  | _ -> Option.map (fun p -> Float.to_int (Float.round (p *. 1e6))) (float_of_string_opt s)

(** Parse ["0.523000::reach(17)"] or ["true::total(3, 120)"]. *)
let parse_row (s : string) : row option =
  let s = String.trim s in
  let n = String.length s in
  let rec sep i =
    if i + 1 >= n then None else if s.[i] = ':' && s.[i + 1] = ':' then Some i else sep (i + 1)
  in
  match (sep 0, String.index_opt s '(') with
  | Some i, Some l when l > i + 2 && s.[n - 1] = ')' -> (
      let args_text = String.sub s (l + 1) (n - l - 2) in
      let args =
        if String.trim args_text = "" then Some []
        else
          List.fold_right
            (fun a acc ->
              match (acc, int_of_string_opt (String.trim a)) with
              | Some l, Some v -> Some (v :: l)
              | _ -> None)
            (String.split_on_char ',' args_text)
            (Some [])
      in
      match (tag_of_string (String.sub s 0 i), args) with
      | Some tag, Some args -> Some { pred = String.sub s (i + 2) (l - i - 2); args; tag }
      | _ -> None)
  | _ -> None

(** Normalize a reply's rows for comparison with an oracle (sorted);
    [None] if any row is malformed. *)
let rows (texts : string list) : row list option =
  List.fold_right
    (fun t acc -> match (acc, parse_row t) with Some l, Some r -> Some (r :: l) | _ -> None)
    texts (Some [])
  |> Option.map (List.sort compare)
