(* The benchmark's own seeded draws (splitmix64). Statement order and the
   elastic cycles' fault seeds come from here, never from the program, so a
   change to the program cannot change the benchmark's inputs. *)

type t = { mutable state : int64 }

let golden = 0x9e3779b97f4a7c15L

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix (Int64.of_int seed) }

let next t =
  t.state <- Int64.add t.state golden;
  mix t.state

(* uniform in [0, 1) from the top 53 bits *)
let float t = Int64.to_float (Int64.shift_right_logical (next t) 11) /. 9007199254740992.

let int t n = min (n - 1) (int_of_float (float t *. float_of_int n))

(* a non-negative seed for another component (the fault plane) *)
let seed t = Int64.to_int (Int64.shift_right_logical (next t) 2)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done
