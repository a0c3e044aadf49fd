#include "ratmath/rational.h"

#include <ostream>

namespace anc {

Rational::Rational(Int n, Int d)
{
    if (d == 0)
        throw MathError("rational with zero denominator");
    *this = make128(Int128(n), Int128(d));
}

Rational
Rational::make128(Int128 n, Int128 d)
{
    if (d == 0)
        throw MathError("rational with zero denominator");
    if (d < 0) {
        n = -n;
        d = -d;
    }
    if (n == 0) {
        Rational r;
        return r;
    }
    Int128 g = gcd128(n, d);
    n /= g;
    d /= g;
    Rational r;
    r.num_ = narrow128(n);
    r.den_ = narrow128(d);
    return r;
}

Int
Rational::asInteger() const
{
    if (den_ != 1)
        throw InternalError("asInteger on non-integer rational " + str());
    return num_;
}

Rational
Rational::abs() const
{
    Rational r = *this;
    if (r.num_ < 0)
        r.num_ = checkedNeg(r.num_);
    return r;
}

Rational
Rational::inverse() const
{
    if (num_ == 0)
        throw MathError("inverse of zero rational");
    return make128(Int128(den_), Int128(num_));
}

double
Rational::toDouble() const
{
    return double(num_) / double(den_);
}

std::string
Rational::str() const
{
    if (den_ == 1)
        return std::to_string(num_);
    return std::to_string(num_) + "/" + std::to_string(den_);
}

Rational
Rational::operator-() const
{
    Rational r = *this;
    r.num_ = checkedNeg(r.num_);
    return r;
}

Rational
Rational::operator+(const Rational &o) const
{
    Int128 n = Int128(num_) * o.den_ + Int128(o.num_) * den_;
    Int128 d = Int128(den_) * o.den_;
    return make128(n, d);
}

Rational
Rational::operator-(const Rational &o) const
{
    Int128 n = Int128(num_) * o.den_ - Int128(o.num_) * den_;
    Int128 d = Int128(den_) * o.den_;
    return make128(n, d);
}

Rational
Rational::operator*(const Rational &o) const
{
    return make128(Int128(num_) * o.num_, Int128(den_) * o.den_);
}

Rational
Rational::operator/(const Rational &o) const
{
    if (o.num_ == 0)
        throw MathError("rational division by zero");
    return make128(Int128(num_) * o.den_, Int128(den_) * o.num_);
}

bool
Rational::operator<(const Rational &o) const
{
    return Int128(num_) * o.den_ < Int128(o.num_) * den_;
}

std::ostream &
operator<<(std::ostream &os, const Rational &r)
{
    return os << r.str();
}

} // namespace anc
