(* Row checking. Every result is reduced to its row count and a 63-bit
   digest of its rows, computed here and not with the engine's own printer:
   an order-independent sum of row hashes (a multiset), or an
   order-dependent chain when the statement ends with ORDER BY. Floats are
   compared to 20 significant bits (about 6 decimal digits), since engines
   may sum in different orders. The expected digest of a statement is that of the single-node
   reference execution of its best serial plan ([Opdw.run_reference]). *)

(* splitmix-style finalizer on native ints (63-bit, wrapping) *)
let mix x =
  let x = (x lxor (x lsr 31)) * 0x3f58476d1ce4e5b9 in
  let x = (x lxor (x lsr 29)) * 0x14d049bb133111eb in
  x lxor (x lsr 32)

(* a float rounded to 20 significant bits (~6 decimal digits), as binary
   (mantissa, exponent) *)
let float_hash f =
  if Float.abs f < 1e-9 then mix 3
  else begin
    let m, e = Float.frexp f in
    let m = Float.to_int (Float.round (m *. 1048576.)) in
    (* a mantissa that rounds up to 1.0 belongs to the next binade *)
    let m, e = if abs m = 1048576 then (m / 2, e + 1) else (m, e) in
    mix ((m * 4096) + e + 2048)
  end

let value_hash : Catalog.Value.t -> int = function
  | Null -> mix 1
  | Int i -> mix (i + 0x1000)
  | Float f -> float_hash f
  | String s -> mix (Hashtbl.hash s + 0x3000_0000)
  | Bool b -> mix (if b then 5 else 6)
  | Date d -> mix (d + 0x2000_0000)

let index_of id layout =
  let rec go i = function
    | [] -> failwith (Printf.sprintf "output column %d missing from the result" id)
    | x :: rest -> if x = id then i else go (i + 1) rest
  in
  go 0 layout

(* ORDER BY outside every parenthesis: the statement's result order *)
let ordered sql =
  let s = String.uppercase_ascii sql in
  let n = String.length s in
  let rec scan i depth found =
    if i >= n then found
    else
      match s.[i] with
      | '(' -> scan (i + 1) (depth + 1) found
      | ')' -> scan (i + 1) (depth - 1) found
      | 'O' when depth = 0 && i + 8 <= n && String.sub s i 8 = "ORDER BY" -> scan (i + 8) depth true
      | _ -> scan (i + 1) depth found
  in
  scan 0 0 false

let digest ~ordered (r : Opdw.result) (rs : Engine.Local.rset) =
  let idx =
    Array.of_list
      (List.map (fun (_, id) -> index_of id rs.Engine.Local.layout) (Opdw.output_columns r))
  in
  let row_hash row = Array.fold_left (fun h i -> mix ((h * 31) + value_hash row.(i))) 7 idx in
  List.fold_left
    (fun (n, acc) row ->
       let h = row_hash row in
       (n + 1, if ordered then mix ((acc * 31) + h) else acc + mix h))
    (0, 0) rs.Engine.Local.rows

