type 'a t = { mutable data : 'a array; mutable len : int }

let create () = { data = [||]; len = 0 }

let length v = v.len
let is_empty v = v.len = 0

let check v i =
  if i < 0 || i >= v.len then invalid_arg (Printf.sprintf "Vec: index %d out of %d" i v.len)

let get v i = check v i; v.data.(i)
let set v i x = check v i; v.data.(i) <- x

let grow v x =
  let cap = Array.length v.data in
  let new_cap = if cap = 0 then 8 else 2 * cap in
  let data = Array.make new_cap x in
  Array.blit v.data 0 data 0 v.len;
  v.data <- data

let push v x =
  if v.len = Array.length v.data then grow v x;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let swap_remove v i =
  check v i;
  v.data.(i) <- v.data.(v.len - 1);
  v.len <- v.len - 1

let find_index p v =
  let rec loop i =
    if i >= v.len then None else if p v.data.(i) then Some i else loop (i + 1)
  in
  loop 0

let iter f v = for i = 0 to v.len - 1 do f v.data.(i) done
let iteri f v = for i = 0 to v.len - 1 do f i v.data.(i) done

let fold_left f acc v =
  let acc = ref acc in
  for i = 0 to v.len - 1 do acc := f !acc v.data.(i) done;
  !acc

let exists p v =
  let rec loop i = i < v.len && (p v.data.(i) || loop (i + 1)) in
  loop 0

let to_array v = Array.sub v.data 0 v.len
let of_array a = { data = Array.copy a; len = Array.length a }
let copy v = { data = Array.sub v.data 0 v.len; len = v.len }
let to_list v = Array.to_list (to_array v)
