type totals = {
  published : int;
  handoffs : int;
  delivered : int;
  dropped : int;
}

let zero = { published = 0; handoffs = 0; delivered = 0; dropped = 0 }

let add a b =
  {
    published = a.published + b.published;
    handoffs = a.handoffs + b.handoffs;
    delivered = a.delivered + b.delivered;
    dropped = a.dropped + b.dropped;
  }

let sub a b =
  {
    published = a.published - b.published;
    handoffs = a.handoffs - b.handoffs;
    delivered = a.delivered - b.delivered;
    dropped = a.dropped - b.dropped;
  }

let expected t = t.delivered + t.dropped

let fields t =
  [
    ("published", t.published);
    ("handoffs", t.handoffs);
    ("delivered", t.delivered);
    ("dropped", t.dropped);
  ]

let pp ppf t =
  Format.fprintf ppf "published %d, handoffs %d, delivered %d, dropped %d"
    t.published t.handoffs t.delivered t.dropped
